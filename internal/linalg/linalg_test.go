package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// MulVec computes y = M·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MulVec: len(x)=%d, want %d", len(x), m.Cols)
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled to avoid overflow, matching the classic BLAS dnrm2 approach.
	scale, ssq := 0.0, 1.0
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			ssq = 1 + ssq*(scale/ax)*(scale/ax)
			scale = ax
		} else {
			ssq += (ax / scale) * (ax / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Error("At/Set broken")
	}
	cp := m.Clone()
	cp.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone not deep")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil || m.At(1, 0) != 3 {
		t.Fatalf("FromRows: %v", err)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Error("empty FromRows broken")
	}
}

func TestMulVecAndMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.MulVec([]float64{1, 1})
	if err != nil || y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v, %v", y, err)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("bad vector length accepted")
	}
}

func TestQRExactSolve(t *testing.T) {
	// Square full-rank: least squares = exact solve.
	a, _ := FromRows([][]float64{{2, 1}, {1, -1}})
	x, err := SolveLS(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-10) || !almostEq(x[1], 1, 1e-10) {
		t.Errorf("QR solve = %v", x)
	}
}

func TestQROverdeterminedRecovery(t *testing.T) {
	// y = 3x + 2 sampled without noise: LS must recover exactly.
	var rows [][]float64
	var b []float64
	for i := 0; i < 10; i++ {
		x := float64(i)
		rows = append(rows, []float64{x, 1})
		b = append(b, 3*x+2)
	}
	a, _ := FromRows(rows)
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-10) || !almostEq(x[1], 2, 1e-10) {
		t.Errorf("LS = %v, want [3 2]", x)
	}
}

func TestQRLeastSquaresOptimality(t *testing.T) {
	// The QR solution must beat random perturbations in ‖Ax−b‖₂.
	rng := rand.New(rand.NewSource(11))
	a := NewMatrix(20, 3)
	b := make([]float64, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	base := residNorm(a, x, b)
	for trial := 0; trial < 100; trial++ {
		xp := append([]float64(nil), x...)
		for j := range xp {
			xp[j] += rng.NormFloat64() * 0.1
		}
		if residNorm(a, xp, b) < base-1e-9 {
			t.Fatalf("perturbed solution beats QR: %v < %v", residNorm(a, xp, b), base)
		}
	}
}

func residNorm(a *Matrix, x, b []float64) float64 {
	ax, _ := a.MulVec(x)
	r := make([]float64, len(b))
	for i := range b {
		r[i] = ax[i] - b[i]
	}
	return Norm2(r)
}

func TestQRRankDeficiencyDetected(t *testing.T) {
	// Column 2 = 2 × column 1.
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := SolveLS(a, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient LS accepted")
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.FullRank() {
		t.Error("FullRank() true for rank-deficient matrix")
	}
}

func TestFactorShapeCheck(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("wide matrix accepted by QR")
	}
}

func TestSolveRidgeHandlesRankDeficiency(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	x, err := SolveRidge(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatalf("ridge failed: %v", err)
	}
	// Prediction should still be close even though coefficients are not unique.
	ax, _ := a.MulVec(x)
	for i, want := range []float64{1, 2, 3} {
		if !almostEq(ax[i], want, 1e-3) {
			t.Errorf("ridge prediction[%d] = %v, want %v", i, ax[i], want)
		}
	}
	if _, err := SolveRidge(a, []float64{1, 2, 3}, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if Norm2(v) != 5 {
		t.Errorf("Norm2 = %v", Norm2(v))
	}
	if Norm2(nil) != 0 {
		t.Error("empty Norm2 should be 0")
	}
	// Overflow-resistant norm.
	big := []float64{1e300, 1e300}
	if math.IsInf(Norm2(big), 1) {
		t.Error("Norm2 overflowed")
	}
}

func TestQRSolveBadLength(t *testing.T) {
	a, _ := FromRows([][]float64{{1}, {2}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("bad b length accepted by QR.Solve")
	}
}
