// Package model defines the shared representation of ChARLES output: the
// conditional transformation (CT) and the change summary (a set of CTs).
// It sits below the scoring, tree-rendering, search, and baseline layers so
// they can exchange summaries without import cycles.
package model

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"charles/internal/predicate"
	"charles/internal/table"
)

// Transformation describes how the target attribute changed within one
// partition: new_target = Σ Coef[i]·feature_i(source row) + Intercept, or
// NoChange (identity). Features are read from the *source* snapshot, so
// `bonus` on the right-hand side means last year's bonus.
//
// The common linear case names plain attributes via Inputs; when the
// nonlinear extension is active, Features carries derived inputs
// (ln(pay), pay², pay·grade) and takes precedence over Inputs.
type Transformation struct {
	Target    string
	Inputs    []string  // attribute names (linear features); ignored when Features is set
	Features  []Feature // derived features; optional
	Coef      []float64 // aligned with Features if set, else with Inputs
	Intercept float64
	NoChange  bool
}

// features returns the effective feature list in either representation.
func (tr Transformation) features() []Feature {
	if tr.Features != nil {
		return tr.Features
	}
	fs := make([]Feature, len(tr.Inputs))
	for i, in := range tr.Inputs {
		fs[i] = Lin(in)
	}
	return fs
}

// InputNames returns the display names of the effective inputs.
func (tr Transformation) InputNames() []string {
	fs := tr.features()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name()
	}
	return names
}

// Identity returns the no-change transformation for the target attribute.
func Identity(target string) Transformation {
	return Transformation{Target: target, NoChange: true}
}

// Apply evaluates the transformation for row r of the source table.
func (tr Transformation) Apply(src *table.Table, r int) (float64, error) {
	if tr.NoChange {
		col, err := src.Column(tr.Target)
		if err != nil {
			return 0, err
		}
		return col.Float(r), nil
	}
	s := tr.Intercept
	for i, f := range tr.features() {
		v, err := f.Eval(src, r)
		if err != nil {
			return 0, err
		}
		s += tr.Coef[i] * v
	}
	return s, nil
}

// Complexity counts the variables in the linear equation (the paper's
// "transformation with fewer variables is preferred"). NoChange counts 0.
func (tr Transformation) Complexity() int {
	if tr.NoChange {
		return 0
	}
	n := 0
	for _, c := range tr.Coef {
		if c != 0 {
			n++
		}
	}
	return n
}

// String renders e.g. "new_bonus = 1.05×bonus + 1000" or "no change".
func (tr Transformation) String() string {
	if tr.NoChange {
		return "no change"
	}
	rhs := ""
	for i, in := range tr.InputNames() {
		c := tr.Coef[i]
		if c == 0 {
			continue
		}
		term := fmt.Sprintf("%s×%s", fmtConst(math.Abs(c)), in)
		switch {
		case rhs == "" && c < 0:
			rhs = "-" + term
		case rhs == "":
			rhs = term
		case c < 0:
			rhs += " - " + term
		default:
			rhs += " + " + term
		}
	}
	switch {
	case rhs == "":
		rhs = fmtConst(tr.Intercept)
	case tr.Intercept > 0:
		rhs += " + " + fmtConst(tr.Intercept)
	case tr.Intercept < 0:
		rhs += " - " + fmtConst(-tr.Intercept)
	}
	return fmt.Sprintf("new_%s = %s", tr.Target, rhs)
}

func fmtConst(x float64) string { return fmt.Sprintf("%.6g", x) }

// fingerprint gives a canonical identity, with constants rounded so that
// numerically indistinguishable transformations collide.
func (tr Transformation) fingerprint() string {
	if tr.NoChange {
		return "id"
	}
	fs := tr.features()
	parts := make([]string, 0, len(fs)+1)
	for i, f := range fs {
		if tr.Coef[i] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s*%.6g", f.key(), tr.Coef[i]))
	}
	sort.Strings(parts)
	parts = append(parts, fmt.Sprintf("+%.6g", tr.Intercept))
	return strings.Join(parts, "|")
}

// CT is a conditional transformation: the unit of explanation. The condition
// selects a data partition; the transformation describes the change there.
type CT struct {
	Cond predicate.Predicate
	Tran Transformation

	// Diagnostics filled by the search engine:
	Rows     int     // rows in the partition (source table)
	Coverage float64 // Rows / total rows
	MAE      float64 // mean absolute error of Tran on the partition
}

// String renders "edu = PhD  →  new_bonus = 1.05×bonus + 1000".
func (ct CT) String() string {
	return fmt.Sprintf("%s  →  %s", ct.Cond, ct.Tran)
}

// Summary is a set of CTs explaining the evolution of one target attribute
// between two snapshots.
type Summary struct {
	Target string
	CTs    []CT

	// Provenance: which attribute subsets generated this summary.
	CondAttrs []string
	TranAttrs []string
}

// Size returns the number of CTs.
func (s *Summary) Size() int { return len(s.CTs) }

// Fingerprint identifies semantically equal summaries (order-insensitive).
func (s *Summary) Fingerprint() string {
	parts := make([]string, len(s.CTs))
	for i, ct := range s.CTs {
		parts[i] = ct.Cond.Fingerprint() + "=>" + ct.Tran.fingerprint()
	}
	sort.Strings(parts)
	return s.Target + "::" + strings.Join(parts, ";;")
}

// Apply produces the predicted target column: for each source row, the first
// CT (in order) whose condition matches is applied; unmatched rows predict
// "no change". Returns the predictions and a mask of rows covered by some CT.
func (s *Summary) Apply(src *table.Table) ([]float64, []bool, error) {
	n := src.NumRows()
	preds := make([]float64, n)
	covered := make([]bool, n)
	tcol, err := src.Column(s.Target)
	if err != nil {
		return nil, nil, err
	}
	for r := 0; r < n; r++ {
		preds[r] = tcol.Float(r) // default: unchanged
		for _, ct := range s.CTs {
			ok, err := ct.Cond.Eval(src, r)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				v, err := ct.Tran.Apply(src, r)
				if err != nil {
					return nil, nil, err
				}
				preds[r] = v
				covered[r] = true
				break
			}
		}
	}
	return preds, covered, nil
}

// String renders the summary as one CT per line.
func (s *Summary) String() string {
	var b strings.Builder
	for i, ct := range s.CTs {
		fmt.Fprintf(&b, "CT%d: %s\n", i+1, ct.String())
	}
	return b.String()
}
