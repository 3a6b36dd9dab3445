package score

import (
	"math/rand"
	"testing"

	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/table"
)

func randomScoreTable(rng *rand.Rand, n int) *table.Table {
	t := table.MustNew(table.Schema{
		{Name: "pay", Type: table.Float},
		{Name: "exp", Type: table.Int},
		{Name: "edu", Type: table.String},
	})
	edus := []string{"BS", "MS", "PhD"}
	for r := 0; r < n; r++ {
		vals := []table.Value{
			table.F(1000 + float64(rng.Intn(9000))),
			table.I(int64(rng.Intn(20))),
			table.S(edus[rng.Intn(len(edus))]),
		}
		for c := range vals {
			if rng.Float64() < 0.05 {
				vals[c] = table.Null(t.Schema()[c].Type)
			}
		}
		t.MustAppendRow(vals...)
	}
	return t
}

func randomSummary(rng *rand.Rand) *model.Summary {
	s := &model.Summary{Target: "pay"}
	nCT := 1 + rng.Intn(3)
	for i := 0; i < nCT; i++ {
		var cond predicate.Predicate
		if rng.Intn(4) > 0 {
			switch rng.Intn(3) {
			case 0:
				cond = cond.And(predicate.StrAtom("edu", predicate.Eq, []string{"BS", "MS", "PhD"}[rng.Intn(3)]))
			case 1:
				cond = cond.And(predicate.NumAtom("exp", predicate.Lt, float64(rng.Intn(20))))
			default:
				cond = cond.And(predicate.NumAtom("pay", predicate.Ge, 1000+float64(rng.Intn(9000))))
			}
		}
		var tran model.Transformation
		switch rng.Intn(4) {
		case 0:
			tran = model.Identity("pay")
		case 1:
			tran = model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1.05}, Intercept: 100}
		case 2:
			tran = model.Transformation{
				Target:   "pay",
				Features: []model.Feature{{Form: model.Log, Attr: "pay"}, {Form: model.Square, Attr: "exp"}},
				Coef:     []float64{50, 2}, Intercept: float64(rng.Intn(500)),
			}
		default:
			tran = model.Transformation{
				Target:   "pay",
				Features: []model.Feature{{Form: model.Interaction, Attr: "pay", Attr2: "exp"}},
				Coef:     []float64{0.01}, Intercept: 1,
			}
		}
		s.CTs = append(s.CTs, model.CT{Cond: cond, Tran: tran})
	}
	return s
}

// TestEvaluatorMatchesEvaluate is the differential lock on the zero-realloc
// scoring path: every Breakdown field must equal the naive path bit for bit
// on randomized tables and summaries.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(200)
		src := randomScoreTable(rng, n)
		actual := make([]float64, n)
		changed := make([]bool, n)
		pay := src.MustColumn("pay")
		for r := 0; r < n; r++ {
			actual[r] = pay.Float(r)
			if rng.Float64() < 0.5 {
				actual[r] *= 1.05
				changed[r] = true
			}
		}
		w := DefaultWeights()
		ev, err := NewEvaluator(src, actual, changed, w, predicate.NewCache(src))
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < 20; si++ {
			s := randomSummary(rng)
			want, err := Evaluate(s, src, actual, changed, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.Evaluate(s)
			if err != nil {
				t.Fatal(err)
			}
			if got != *want {
				t.Fatalf("trial %d summary %d: evaluator %+v != naive %+v\nsummary:\n%s", trial, si, got, *want, s)
			}
		}
	}
}

// TestEvaluatorSteadyStateAllocs locks the zero-realloc contract: once the
// atom cache is warm, scoring a summary allocates nothing.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 500
	src := randomScoreTable(rng, n)
	actual := make([]float64, n)
	changed := make([]bool, n)
	pay := src.MustColumn("pay")
	for r := 0; r < n; r++ {
		actual[r] = pay.Float(r) * 1.1
		changed[r] = true
	}
	ev, err := NewEvaluator(src, actual, changed, DefaultWeights(), predicate.NewCache(src))
	if err != nil {
		t.Fatal(err)
	}
	s := &model.Summary{Target: "pay", CTs: []model.CT{
		{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("edu", predicate.Eq, "MS")}},
			Tran: model.Transformation{Target: "pay", Features: []model.Feature{model.Lin("pay")}, Coef: []float64{1.1}},
		},
		{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.NumAtom("exp", predicate.Ge, 5)}},
			Tran: model.Identity("pay"),
		},
	}}
	if _, err := ev.Evaluate(s); err != nil { // warm the cache and scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.Evaluate(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Evaluate allocates %.1f objects/op, want 0", allocs)
	}
}
