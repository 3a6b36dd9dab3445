package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is (numerically) rank deficient.
var ErrSingular = errors.New("linalg: matrix is singular or rank deficient")

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q orthogonal (stored implicitly as Householder vectors) and
// R upper triangular.
type QR struct {
	qr   *Matrix   // Householder vectors below the diagonal, R on/above it
	rdia []float64 // diagonal of R
}

// Factor computes the QR factorization of a (not modified).
func Factor(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QR needs rows ≥ cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -norm
	}
	return &QR{qr: qr, rdia: rdia}, nil
}

// FullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (f *QR) FullRank() bool {
	maxd := 0.0
	for _, d := range f.rdia {
		if a := math.Abs(d); a > maxd {
			maxd = a
		}
	}
	if maxd == 0 {
		return false
	}
	const rcond = 1e-12
	for _, d := range f.rdia {
		if math.Abs(d) <= rcond*maxd {
			return false
		}
	}
	return true
}

// Solve returns x minimizing ‖A·x − b‖₂ using the stored factorization.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR.Solve: len(b)=%d, want %d", len(b), m)
	}
	if !f.FullRank() {
		return nil, ErrSingular
	}
	y := append([]float64(nil), b...)
	// Apply Qᵀ to b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R·x = (Qᵀb)[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdia[i]
	}
	return x, nil
}

// SolveLS returns x minimizing ‖A·x − b‖₂ (QR-based, numerically stable).
func SolveLS(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveRidge solves the regularized least-squares problem
// min ‖A·x − b‖² + λ‖x‖² via the augmented system [A; √λ·I]x = [b; 0].
// With λ > 0 the system is always full rank.
func SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: SolveRidge: negative lambda %g", lambda)
	}
	if lambda == 0 {
		return SolveLS(a, b)
	}
	m, n := a.Rows, a.Cols
	aug := NewMatrix(m+n, n)
	copy(aug.Data[:m*n], a.Data)
	sq := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sq)
	}
	bb := make([]float64, m+n)
	copy(bb, b)
	return SolveLS(aug, bb)
}
