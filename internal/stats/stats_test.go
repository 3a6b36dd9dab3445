package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Errorf("variance = %v", Variance(xs))
	}
	if Std(xs) != 2 {
		t.Errorf("std = %v", Std(xs))
	}
}

func TestMeanSkipsNaN(t *testing.T) {
	xs := []float64{1, math.NaN(), 3}
	if Mean(xs) != 2 {
		t.Errorf("NaN-skipping mean = %v", Mean(xs))
	}
	if !math.IsNaN(Mean([]float64{math.NaN()})) {
		t.Error("all-NaN mean should be NaN")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestPearsonPerfectAndInverse(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if !almostEq(Pearson(x, y), 1, 1e-12) {
		t.Errorf("perfect corr = %v", Pearson(x, y))
	}
	inv := []float64{10, 8, 6, 4, 2}
	if !almostEq(Pearson(x, inv), -1, 1e-12) {
		t.Errorf("inverse corr = %v", Pearson(x, inv))
	}
}

func TestPearsonConstantAndShort(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant side should give 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Error("single pair should give 0")
	}
}

func TestPearsonSkipsNaNPairs(t *testing.T) {
	x := []float64{1, 2, math.NaN(), 4}
	y := []float64{2, 4, 100, 8}
	if !almostEq(Pearson(x, y), 1, 1e-12) {
		t.Errorf("NaN-pair skipping failed: %v", Pearson(x, y))
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		// Symmetry.
		return almostEq(r, Pearson(y, x), 1e-12)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCorrelationRatioDeterministic(t *testing.T) {
	cats := []string{"a", "a", "b", "b", "c", "c"}
	vals := []float64{1, 1, 5, 5, 9, 9}
	if !almostEq(CorrelationRatio(cats, vals), 1, 1e-12) {
		t.Errorf("deterministic eta = %v", CorrelationRatio(cats, vals))
	}
}

func TestCorrelationRatioNoSignal(t *testing.T) {
	cats := []string{"a", "a", "b", "b"}
	vals := []float64{1, 9, 1, 9}
	if eta := CorrelationRatio(cats, vals); !almostEq(eta, 0, 1e-12) {
		t.Errorf("no-signal eta = %v", eta)
	}
}

func TestCorrelationRatioDegenerate(t *testing.T) {
	if CorrelationRatio([]string{"a", "a"}, []float64{1, 2}) != 0 {
		t.Error("single category should give 0")
	}
	if CorrelationRatio([]string{"a"}, []float64{1}) != 0 {
		t.Error("single row should give 0")
	}
	if CorrelationRatio([]string{"a", "b"}, []float64{math.NaN(), math.NaN()}) != 0 {
		t.Error("all-NaN should give 0")
	}
}
