// Package regress implements ordinary least squares regression on top of
// internal/linalg, plus the coefficient "snapping" used by ChARLES to trade
// a little accuracy for a lot of interpretability (5% beats 4.973%).
//
// Models here are the transformation half of a conditional transformation:
// new_target = Σ coefᵢ·featureᵢ + intercept.
package regress

import (
	"errors"
	"fmt"
	"math"

	"charles/internal/linalg"
)

// ErrDegenerate is returned when a fit is impossible (no rows, or fewer rows
// than parameters and ridge disabled).
var ErrDegenerate = errors.New("regress: degenerate fit (too few rows for parameters)")

// Options control model fitting.
type Options struct {
	// Intercept adds a constant term (default true via DefaultOptions).
	Intercept bool
	// Ridge is the fallback L2 regularization strength used only when the
	// unregularized system is rank deficient. 0 disables the fallback.
	Ridge float64
}

// DefaultOptions fits with an intercept and a tiny ridge fallback.
func DefaultOptions() Options { return Options{Intercept: true, Ridge: 1e-8} }

// Model is a fitted linear model y ≈ X·Coef + Intercept.
type Model struct {
	Coef      []float64 // one per feature column
	Intercept float64
	N         int // rows used

	// Fit diagnostics over the training rows.
	R2   float64 // coefficient of determination (1 for perfect fit)
	RMSE float64
	MAE  float64 // mean absolute error (the paper's L1 accuracy basis)
}

// Fit computes the least-squares model of y on the feature matrix x
// (x[i][j] = feature j of row i). Rows containing NaN/Inf in x or y are
// rejected with an error: the table layer is responsible for filtering.
func Fit(x [][]float64, y []float64, opts Options) (*Model, error) {
	n := len(y)
	if len(x) != n {
		return nil, fmt.Errorf("regress: %d feature rows vs %d targets", len(x), n)
	}
	if n == 0 {
		return nil, ErrDegenerate
	}
	d := 0
	if n > 0 {
		d = len(x[0])
	}
	p := d
	if opts.Intercept {
		p++
	}
	if n < p && opts.Ridge == 0 {
		return nil, ErrDegenerate
	}
	for i := 0; i < n; i++ {
		if len(x[i]) != d {
			return nil, fmt.Errorf("regress: ragged feature row %d (%d vs %d)", i, len(x[i]), d)
		}
		for _, v := range x[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("regress: non-finite feature at row %d", i)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("regress: non-finite target at row %d", i)
		}
	}

	// Degenerate but legal: zero features + intercept = fit the mean.
	if p == 0 {
		return nil, ErrDegenerate
	}

	a := linalg.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			a.Set(i, j, x[i][j])
		}
		if opts.Intercept {
			a.Set(i, d, 1)
		}
	}
	var beta []float64
	var err error
	if n >= p {
		beta, err = linalg.SolveLS(a, y)
		if errors.Is(err, linalg.ErrSingular) && opts.Ridge > 0 {
			beta, err = linalg.SolveRidge(a, y, opts.Ridge)
		}
	} else {
		// Fewer rows than parameters: only the ridge-regularized problem is
		// well posed (its augmented system is square-or-tall by design).
		beta, err = linalg.SolveRidge(a, y, opts.Ridge)
	}
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}

	m := &Model{Coef: beta[:d], N: n}
	if opts.Intercept {
		m.Intercept = beta[d]
	}
	m.computeDiagnostics(x, y)
	return m, nil
}

// Predict evaluates the model on one feature vector.
func (m *Model) Predict(features []float64) float64 {
	s := m.Intercept
	for j, c := range m.Coef {
		s += c * features[j]
	}
	return s
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := *m
	c.Coef = append([]float64(nil), m.Coef...)
	return &c
}

// computeDiagnostics fills R2, RMSE and MAE from the training data.
func (m *Model) computeDiagnostics(x [][]float64, y []float64) {
	n := len(y)
	if n == 0 {
		return
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	var sse, sst, sae float64
	for i := range y {
		r := y[i] - m.Predict(x[i])
		sse += r * r
		sae += math.Abs(r)
		dv := y[i] - mean
		sst += dv * dv
	}
	m.RMSE = math.Sqrt(sse / float64(n))
	m.MAE = sae / float64(n)
	if sst == 0 {
		// Constant target: R² is 1 when we reproduce it exactly, else 0.
		if sse < 1e-18 {
			m.R2 = 1
		} else {
			m.R2 = 0
		}
		return
	}
	m.R2 = 1 - sse/sst
}

// Refit re-evaluates diagnostics after coefficients were modified (e.g. by
// snapping), without re-solving.
func (m *Model) Refit(x [][]float64, y []float64) {
	m.computeDiagnostics(x, y)
	m.N = len(y)
}
