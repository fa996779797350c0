package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("sequence diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other and from the parent's
	// subsequent output.
	for i := 0; i < 100; i++ {
		v1, v2, vp := c1.Uint64(), c2.Uint64(), parent.Uint64()
		if v1 == v2 && v2 == vp {
			t.Fatalf("split streams identical at step %d", i)
		}
	}
}

func TestSplitNDeterministic(t *testing.T) {
	a := New(9).SplitN(4)
	b := New(9).SplitN(4)
	for i := range a {
		if a[i].Uint64() != b[i].Uint64() {
			t.Fatalf("SplitN child %d not reproducible", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %g", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %g, want ≈ 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	const n = 60000
	for i := 0; i < n; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) = %d out of range", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		frac := float64(seen[v]) / n
		if math.Abs(frac-1.0/6) > 0.02 {
			t.Fatalf("Intn(6) value %d frequency %g, want ≈ 1/6", v, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	err := quick.Check(func(seed uint64) bool {
		p := New(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50, Rand: nil})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestStdNormalMoments(t *testing.T) {
	r := New(8)
	const n = 400000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.StdNormal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ≈ 1", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(10)
	const rate = 2.5
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exponential mean = %g, want ≈ %g", mean, 1/rate)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 4, 12, 50, 200} {
		r := New(uint64(lambda*10) + 1)
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(lambda))
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		tol := 4 * math.Sqrt(lambda/float64(n)) * 3
		if math.Abs(mean-lambda) > tol+0.05 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.1 {
			t.Errorf("Poisson(%g) variance = %g", lambda, variance)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{{0.5, 1}, {2, 3}, {9, 0.5}} {
		r := New(uint64(tc.shape*100) + uint64(tc.scale))
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(tc.shape, tc.scale)
		}
		mean := sum / n
		want := tc.shape * tc.scale
		if math.Abs(mean-want)/want > 0.02 {
			t.Errorf("Gamma(%g,%g) mean = %g, want ≈ %g", tc.shape, tc.scale, mean, want)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(12)
	w := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, c := range counts {
		want := w[i] / 10
		got := float64(c) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical index %d freq = %g, want ≈ %g", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %g", frac)
	}
}

func TestShuffleProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
		sum := 0
		for _, x := range xs {
			sum += x
		}
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := 0
		for _, x := range xs {
			got += x
		}
		return got == sum
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestNamespaceSeed(t *testing.T) {
	// Pure: same inputs, same output.
	a := NamespaceSeed(1, "tenant-a", 42)
	if b := NamespaceSeed(1, "tenant-a", 42); b != a {
		t.Fatalf("NamespaceSeed not deterministic: %d vs %d", a, b)
	}
	// Distinct labels, bases, and seeds land in distinct spots.
	seen := map[uint64]string{}
	add := func(desc string, v uint64) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("collision between %s and %s at %d", desc, prev, v)
		}
		seen[v] = desc
	}
	add("base=1 a/42", a)
	add("base=1 b/42", NamespaceSeed(1, "tenant-b", 42))
	add("base=1 a/43", NamespaceSeed(1, "tenant-a", 43))
	add("base=2 a/42", NamespaceSeed(2, "tenant-a", 42))
	add("base=1 empty/42", NamespaceSeed(1, "", 42))
	// Labels that are prefixes of each other must still separate.
	add("base=1 t/0", NamespaceSeed(1, "t", 0))
	add("base=1 te/0", NamespaceSeed(1, "te", 0))
}
