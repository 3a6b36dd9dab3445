package predicate

import (
	"fmt"
	"math/rand"
	"testing"

	"charles/internal/table"
)

// randomTable builds a table with every column type and ~10% nulls.
func randomTable(rng *rand.Rand, n int) *table.Table {
	t := table.MustNew(table.Schema{
		{Name: "f", Type: table.Float},
		{Name: "i", Type: table.Int},
		{Name: "s", Type: table.String},
		{Name: "b", Type: table.Bool},
	})
	cats := []string{"red", "green", "blue", "violet"}
	for r := 0; r < n; r++ {
		vals := []table.Value{
			table.F(float64(rng.Intn(20)) / 2),
			table.I(int64(rng.Intn(10))),
			table.S(cats[rng.Intn(len(cats))]),
			table.B(rng.Intn(2) == 0),
		}
		for c := range vals {
			if rng.Float64() < 0.1 {
				vals[c] = table.Null(t.Schema()[c].Type)
			}
		}
		t.MustAppendRow(vals...)
	}
	return t
}

// randomAtom draws an atom over the random table's columns, including
// values absent from the data.
func randomAtom(rng *rand.Rand) Atom {
	switch rng.Intn(5) {
	case 0:
		return NumAtom("f", Lt, float64(rng.Intn(22))/2-0.5)
	case 1:
		return NumAtom("i", Ge, float64(rng.Intn(12)-1))
	case 2:
		vals := []string{"red", "green", "blue", "violet", "absent"}
		return StrAtom("s", Eq, vals[rng.Intn(len(vals))])
	case 3:
		vals := []string{"red", "green", "blue", "violet", "absent"}
		return StrAtom("s", Ne, vals[rng.Intn(len(vals))])
	default:
		pool := []string{"red", "green", "absent", "true", "false"}
		k := 1 + rng.Intn(3)
		set := make([]string, k)
		for i := range set {
			set[i] = pool[rng.Intn(len(pool))]
		}
		attr := "s"
		if rng.Intn(2) == 0 {
			attr = "b"
		}
		return SetAtom(attr, set)
	}
}

// TestCompiledMatchesNaive is the differential lock on the vectorized path:
// compiled atom bitsets and cached conjunction masks must agree with the
// row-at-a-time Eval on randomized tables with nulls.
func TestCompiledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tbl := randomTable(rng, 10+rng.Intn(200))
		cache := NewCache(tbl)
		for pi := 0; pi < 10; pi++ {
			p := Predicate{}
			for len(p.Atoms) < rng.Intn(4) {
				p = p.And(randomAtom(rng))
			}
			want, err := p.Mask(tbl)
			if err != nil {
				t.Fatal(err)
			}
			// Standalone compile.
			cp, err := Compile(p, tbl)
			if err != nil {
				t.Fatal(err)
			}
			got := cp.Mask(nil)
			for r := range want {
				if got.Test(r) != want[r] {
					t.Fatalf("trial %d: Compile row %d: got %v want %v (pred %s)", trial, r, got.Test(r), want[r], p)
				}
			}
			// Cached path.
			cgot, err := cache.Mask(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !cgot.Equal(got) {
				t.Fatalf("trial %d: cache mask differs from compiled mask (pred %s)", trial, p)
			}
		}
	}
}

// TestCacheHitAccounting locks the "each distinct atom materialized exactly
// once" contract.
func TestCacheHitAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := randomTable(rng, 50)
	cache := NewCache(tbl)

	a1 := NumAtom("f", Lt, 3)
	a2 := StrAtom("s", Eq, "red")
	p := Predicate{Atoms: []Atom{a1, a2}}

	if _, err := cache.Mask(p, nil); err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("after first mask: hits=%d misses=%d, want 0/2", hits, misses)
	}
	// Re-evaluating the same predicate (and its atoms individually) must be
	// all hits.
	for i := 0; i < 5; i++ {
		if _, err := cache.Mask(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cache.AtomMask(a1); err != nil {
		t.Fatal(err)
	}
	hits, misses = cache.Stats()
	if misses != 2 {
		t.Fatalf("misses grew on repeat evaluation: %d", misses)
	}
	if hits != 11 {
		t.Fatalf("hits = %d, want 11 (5 masks × 2 atoms + 1 direct)", hits)
	}
	if cache.Size() != 2 {
		t.Fatalf("cache size = %d, want 2", cache.Size())
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	o := NewBitset(130)
	o.Fill(130)
	if o.Count() != 130 {
		t.Fatalf("fill count = %d", o.Count())
	}
	o.And(b)
	if !o.Equal(b) {
		t.Fatal("fill∧b != b")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if fmt.Sprint(got) != "[0 64 129]" {
		t.Fatalf("ForEach = %v", got)
	}
	b.AndNot(b)
	if b.Count() != 0 {
		t.Fatal("AndNot self not empty")
	}
}

// TestFillKeepsTailZero guards the whole-word invariant Count/Equal rely on.
func TestFillKeepsTailZero(t *testing.T) {
	b := NewBitset(70)
	b.Fill(70)
	if b.Count() != 70 {
		t.Fatalf("count = %d, want 70", b.Count())
	}
	if b[1]>>6 != 0 {
		t.Fatal("bits above logical length are set")
	}
}
