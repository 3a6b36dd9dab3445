package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func wellSeparated1D() []float64 {
	// Three tight groups around 0, 100, 200.
	var vals []float64
	rng := rand.New(rand.NewSource(1))
	for _, center := range []float64{0, 100, 200} {
		for i := 0; i < 20; i++ {
			vals = append(vals, center+rng.NormFloat64())
		}
	}
	return vals
}

func TestKMeans1DSeparatesGroups(t *testing.T) {
	vals := wellSeparated1D()
	res, err := KMeans1D(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Every group of 20 must share one label.
	for g := 0; g < 3; g++ {
		first := res.Labels[g*20]
		for i := 1; i < 20; i++ {
			if res.Labels[g*20+i] != first {
				t.Fatalf("group %d split across clusters", g)
			}
		}
	}
	if res.Inertia > float64(len(vals))*9 {
		t.Errorf("inertia too high: %v", res.Inertia)
	}
}

func TestKMeans1DDeterministic(t *testing.T) {
	vals := wellSeparated1D()
	a, err := KMeans1D(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans1D(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same input produced different labels")
		}
	}
}

func TestKMeansLabelsSortedBySize(t *testing.T) {
	// 30 points near 0, 10 near 100: cluster 0 must be the big one.
	var vals []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		vals = append(vals, rng.NormFloat64())
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 100+rng.NormFloat64())
	}
	res, err := KMeans1D(vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] != 30 || res.Sizes[1] != 10 {
		t.Errorf("sizes = %v, want [30 10]", res.Sizes)
	}
	if res.Labels[0] != 0 {
		t.Error("majority group should be cluster 0")
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans1D(nil, 2); err == nil {
		t.Error("no points accepted")
	}
	if _, err := KMeans1D([]float64{1}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	res, err := KMeans1D([]float64{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Errorf("K should clamp to n: %d", res.K)
	}
}

func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		k := 1 + rng.Intn(4)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 50
		}
		res, err := KMeans1D(vals, k)
		if err != nil {
			return false
		}
		// Labels in range, sizes sum to n, inertia non-negative, sizes
		// non-increasing.
		total := 0
		for _, s := range res.Sizes {
			total += s
		}
		if total != n || res.Inertia < 0 {
			return false
		}
		for i := 1; i < len(res.Sizes); i++ {
			if res.Sizes[i] > res.Sizes[i-1] {
				return false
			}
		}
		for _, l := range res.Labels {
			if l < 0 || l >= res.K {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKMeansMoreClustersNeverWorse(t *testing.T) {
	vals := wellSeparated1D()
	prev := math.Inf(1)
	for k := 1; k <= 4; k++ {
		res, err := KMeans1D(vals, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.001 {
			t.Errorf("k=%d inertia %v worse than k-1 %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestDuplicatePointsDoNotCrash(t *testing.T) {
	vals := []float64{5, 5, 5, 5, 5}
	res, err := KMeans1D(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("identical points inertia = %v", res.Inertia)
	}
}

// sumSquares is the inertia of values under labels, each cluster about
// its own mean, computed directly in two passes.
func sumSquares(values []float64, labels []int, k int) float64 {
	sum, cnt := make([]float64, k), make([]float64, k)
	for i, v := range values {
		sum[labels[i]] += v
		cnt[labels[i]]++
	}
	total := 0.0
	for i, v := range values {
		d := v - sum[labels[i]]/cnt[labels[i]]
		total += d * d
	}
	return total
}

// bruteForce returns the least inertia over every split of the sorted
// distinct values of values into k contiguous non-empty runs.
func bruteForce(values []float64, k int) float64 {
	distinct := append([]float64(nil), values...)
	sort.Float64s(distinct)
	m := 0
	for _, v := range distinct {
		if m == 0 || distinct[m-1] != v {
			distinct[m] = v
			m++
		}
	}
	distinct = distinct[:m]
	best := math.Inf(1)
	// ends[c] is one past the last distinct index of run c.
	ends := make([]int, k)
	var rec func(c, start int)
	rec = func(c, start int) {
		if c == k-1 {
			ends[c] = m
			labels := make([]int, len(values))
			for i, v := range values {
				j := sort.SearchFloat64s(distinct, v)
				for ends[labels[i]] <= j {
					labels[i]++
				}
			}
			best = math.Min(best, sumSquares(values, labels, k))
			return
		}
		for end := start + 1; end <= m-(k-1-c); end++ {
			ends[c] = end
			rec(c+1, end)
		}
	}
	rec(0, 0)
	return best
}

// checkClustering checks the invariants every KMeans1D answer must hold:
// K = min(k, distinct values), no empty cluster, equal values share a
// cluster, Sizes and Inertia describe Labels, and Inertia is optimal.
func checkClustering(t *testing.T, values []float64, k int, res *Result) {
	t.Helper()
	distinct := map[float64]int{}
	for i, v := range values {
		if l, ok := distinct[v]; ok && l != res.Labels[i] {
			t.Fatalf("equal values %v split across clusters %d and %d", v, l, res.Labels[i])
		}
		distinct[v] = res.Labels[i]
	}
	if want := min(k, len(distinct)); res.K != want {
		t.Fatalf("K = %d, want min(k=%d, distinct=%d) = %d", res.K, k, len(distinct), want)
	}
	sizes := make([]int, res.K)
	for _, l := range res.Labels {
		sizes[l]++
	}
	for c, s := range sizes {
		if s == 0 || s != res.Sizes[c] {
			t.Fatalf("cluster %d holds %d values, Sizes says %d", c, s, res.Sizes[c])
		}
	}
	tol := 1e-9 * (1 + res.Inertia)
	if got := sumSquares(values, res.Labels, res.K); math.Abs(got-res.Inertia) > tol {
		t.Fatalf("Inertia %v, but the labels give %v", res.Inertia, got)
	}
	if want := bruteForce(values, res.K); math.Abs(res.Inertia-want) > tol {
		t.Fatalf("Inertia %v, brute-force optimum %v (values %v, k %d)", res.Inertia, want, values, k)
	}
}

// TestKMeans1DMatchesBruteForce: on small random inputs full of
// duplicates, the clustering is the exact optimum for k = 1–4.
func TestKMeans1DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(rng.Intn(8)) + float64(rng.Intn(3))*0.25
		}
		for k := 1; k <= 4; k++ {
			res, err := KMeans1D(values, k)
			if err != nil {
				t.Fatal(err)
			}
			checkClustering(t, values, k, res)
		}
	}
}

// TestKMeans1DPermutationInvariant: permuting the input permutes the
// labels the same way, and changes nothing else.
func TestKMeans1DPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		values := make([]float64, n)
		for i := range values {
			values[i] = math.Round(rng.NormFloat64()*40) / 4 // many ties
		}
		k := 1 + rng.Intn(4)
		base, err := KMeans1D(values, k)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		permuted := make([]float64, n)
		for i, p := range perm {
			permuted[i] = values[p]
		}
		res, err := KMeans1D(permuted, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.K != base.K || res.Inertia != base.Inertia {
			t.Fatalf("trial %d: permuted K %d inertia %v, base K %d inertia %v", trial, res.K, res.Inertia, base.K, base.Inertia)
		}
		for c := range base.Sizes {
			if res.Sizes[c] != base.Sizes[c] || res.Centers[c] != base.Centers[c] {
				t.Fatalf("trial %d: cluster %d differs after permuting", trial, c)
			}
		}
		for i, p := range perm {
			if res.Labels[i] != base.Labels[p] {
				t.Fatalf("trial %d: value %v labelled %d permuted, %d in place", trial, permuted[i], res.Labels[i], base.Labels[p])
			}
		}
	}
}

// TestKMeans1DKIsMinOfKAndDistinct: with d distinct values, any k gives
// min(k, d) non-empty clusters.
func TestKMeans1DKIsMinOfKAndDistinct(t *testing.T) {
	values := []float64{3, 1, 3, 2, 1, 3} // 3 distinct
	for k := 1; k <= 6; k++ {
		res, err := KMeans1D(values, k)
		if err != nil {
			t.Fatal(err)
		}
		checkClustering(t, values, k, res)
	}
}

// TestKMeans1DSalaryScale clusters salaries a cent apart: their squares
// are ~10¹² while the inertia is ~10⁻³, so unshifted prefix sums would
// cancel away every digit that tells the clusterings apart.
func TestKMeans1DSalaryScale(t *testing.T) {
	var values []float64
	for _, base := range []float64{1234567.00, 1234567.50} {
		for i := 0; i < 10; i++ {
			values = append(values, base+float64(i)*0.01)
		}
	}
	for k := 1; k <= 4; k++ {
		res, err := KMeans1D(values, k)
		if err != nil {
			t.Fatal(err)
		}
		checkClustering(t, values, k, res)
		if k == 2 && (res.Labels[0] == res.Labels[10] || res.Sizes[0] != 10) {
			t.Errorf("k=2 did not split the two salary bands: sizes %v", res.Sizes)
		}
	}
}

// TestKMeans1DNonFinite: NaN and ±Inf are errors, never a panic.
func TestKMeans1DNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := 1; k <= 3; k++ {
			if _, err := KMeans1D([]float64{1, bad, 2, 3}, k); err == nil {
				t.Errorf("k=%d: %v accepted", k, bad)
			}
		}
	}
}

// TestKMeans1DExtremeMagnitudes: values whose squares overflow, or whose
// squares underflow, still cluster by their gaps.
func TestKMeans1DExtremeMagnitudes(t *testing.T) {
	for _, scale := range []float64{1e300, 1e-300, 5e-324} {
		values := []float64{-1 * scale, -0.9 * scale, 1 * scale, 0.95 * scale}
		res, err := KMeans1D(values, 2)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if res.K != 2 || res.Labels[0] != res.Labels[1] || res.Labels[2] != res.Labels[3] || res.Labels[0] == res.Labels[2] {
			t.Errorf("scale %g: labels %v, want the two signs apart", scale, res.Labels)
		}
		if math.IsNaN(res.Inertia) || res.Inertia < 0 {
			t.Errorf("scale %g: inertia %v", scale, res.Inertia)
		}
	}
}
