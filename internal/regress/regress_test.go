package regress

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitExactLine(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 12; i++ {
		v := float64(i) * 100
		x = append(x, []float64{v})
		y = append(y, 1.05*v+1000)
	}
	m, err := Fit(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Coef[0], 1.05, 1e-9) || !almostEq(m.Intercept, 1000, 1e-6) {
		t.Errorf("coef=%v intercept=%v", m.Coef, m.Intercept)
	}
	if !almostEq(m.R2, 1, 1e-12) || m.MAE > 1e-6 || m.RMSE > 1e-6 {
		t.Errorf("diagnostics: R2=%v MAE=%v RMSE=%v", m.R2, m.MAE, m.RMSE)
	}
	if m.N != 12 {
		t.Errorf("N = %d", m.N)
	}
}

func TestFitMultiFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a, b := rng.NormFloat64()*10, rng.NormFloat64()*10
		x = append(x, []float64{a, b})
		y = append(y, 2*a-3*b+7)
	}
	m, err := Fit(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Coef[0], 2, 1e-8) || !almostEq(m.Coef[1], -3, 1e-8) || !almostEq(m.Intercept, 7, 1e-8) {
		t.Errorf("model = %v + %v", m.Coef, m.Intercept)
	}
}

func TestFitNoIntercept(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{2, 4, 6}
	m, err := Fit(x, y, Options{Intercept: false})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Coef[0], 2, 1e-12) || m.Intercept != 0 {
		t.Errorf("no-intercept fit: %v + %v", m.Coef, m.Intercept)
	}
}

func TestFitDegenerateCases(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultOptions()); err == nil {
		t.Error("empty fit accepted")
	}
	// 1 row, 2 params (slope+intercept), no ridge.
	if _, err := Fit([][]float64{{1}}, []float64{2}, Options{Intercept: true}); err == nil {
		t.Error("underdetermined fit without ridge accepted")
	}
	// Same with ridge: succeeds.
	if _, err := Fit([][]float64{{1}}, []float64{2}, Options{Intercept: true, Ridge: 1e-6}); err != nil {
		t.Errorf("ridge-backed underdetermined fit failed: %v", err)
	}
	// Mismatched lengths.
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Error("length mismatch accepted")
	}
	// Ragged features.
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Error("ragged features accepted")
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	if _, err := Fit([][]float64{{math.NaN()}, {1}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Error("NaN feature accepted")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{math.Inf(1), 2}, DefaultOptions()); err == nil {
		t.Error("Inf target accepted")
	}
}

func TestFitConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 5, 5}
	m, err := Fit(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 != 1 {
		t.Errorf("constant target reproduced exactly should give R2=1, got %v", m.R2)
	}
}

func TestFitDuplicateRowsRankDeficientRidgeFallback(t *testing.T) {
	// Two identical x values: slope+intercept not identifiable; the default
	// options carry a tiny ridge fallback.
	x := [][]float64{{5}, {5}}
	y := []float64{10, 10}
	m, err := Fit(x, y, DefaultOptions())
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	if !almostEq(m.Predict([]float64{5}), 10, 1e-6) {
		t.Errorf("prediction = %v, want 10", m.Predict([]float64{5}))
	}
}

func TestResidualsAndPredict(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 3, 5}
	m, err := Fit(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Predict([]float64{10}), 21, 1e-9) {
		t.Errorf("extrapolation = %v, want 21", m.Predict([]float64{10}))
	}
}

func TestCloneIndependence(t *testing.T) {
	m := &Model{Coef: []float64{1, 2}, Intercept: 3}
	c := m.Clone()
	c.Coef[0] = 99
	c.Intercept = 99
	if m.Coef[0] != 1 || m.Intercept != 3 {
		t.Error("Clone not deep")
	}
}

func TestRefitAfterManualEdit(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{2.1, 4.2, 6.3}
	m, err := Fit(x, y, Options{Intercept: false})
	if err != nil {
		t.Fatal(err)
	}
	m.Coef[0] = 2
	m.Refit(x, y)
	if m.MAE < 0.09 || m.MAE > 0.21 {
		t.Errorf("refit MAE = %v", m.MAE)
	}
}
