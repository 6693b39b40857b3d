package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile must be 0")
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Hist
	h.Observe(12345)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 12345 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 12345 || h.Max() != 12345 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Errorf("Quantile(%v) = %d, want 12345", q, got)
		}
	}
}

func TestHistNegativeClampsToZero(t *testing.T) {
	var h Hist
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketOf(v)) must never exceed v, and the bucket's relative
	// width must stay under ~7%.
	for _, v := range []int64{0, 1, 15, 16, 17, 100, 1000, 4096, 50_000, 1_000_000, 3_000_000_000} {
		idx := bucketOf(v)
		lo := bucketLow(idx)
		if lo > v {
			t.Errorf("bucketLow(bucketOf(%d)) = %d > value", v, lo)
		}
		if v >= subBuckets {
			if rel := float64(v-lo) / float64(v); rel > 0.07 {
				t.Errorf("value %d: bucket floor %d relative error %.3f", v, lo, rel)
			}
		}
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 37 {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	var all []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.Intn(1_000_000))
		h.Observe(v)
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := all[int(q*float64(len(all)))]
		got := h.Quantile(q)
		rel := math.Abs(float64(got-exact)) / float64(exact)
		if rel > 0.08 {
			t.Errorf("q=%v: got %d exact %d rel err %.3f", q, got, exact, rel)
		}
	}
}

// TestQuantileNearestRank pins the nearest-rank definition (the bucket of
// the ceil(q*n)-th smallest sample) with values < subBuckets, where the
// histogram is exact. The off-by-one this guards against: P99 of exactly
// 100 samples must be the 99th smallest, not the 100th — 99 fast samples
// and one outlier have a P99 equal to the fast value, not the outlier.
func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		name string
		vals []int64
		q    float64
		want int64
	}{
		{"p99 of 99 fast + 1 outlier is fast", nil, 0.99, 1},
		{"median of odd count rounds up", []int64{1, 2, 3}, 0.5, 2},
		{"median of even count is lower middle", []int64{1, 2, 3, 4}, 0.5, 2},
		{"q just above a rank boundary advances", []int64{1, 2, 3, 4}, 0.76, 4},
		{"q exactly on a rank boundary does not", []int64{1, 2, 3, 4}, 0.75, 3},
		{"p90 of ten samples is the 9th", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.9, 8},
	}
	cases[0].vals = append(make([]int64, 0, 100), 15)
	for i := 0; i < 99; i++ {
		cases[0].vals = append(cases[0].vals, 1)
	}
	for _, tc := range cases {
		var h Hist
		for _, v := range tc.vals {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestQuantileExtremesAreExact(t *testing.T) {
	var h Hist
	h.Observe(3)
	h.Observe(1_000_000)
	h.Observe(500)
	if h.Quantile(0) != 3 {
		t.Errorf("Quantile(0) = %d, want exact min 3", h.Quantile(0))
	}
	if h.Quantile(1) != 1_000_000 {
		t.Errorf("Quantile(1) = %d, want exact max", h.Quantile(1))
	}
}

func TestHistMeanStddev(t *testing.T) {
	var h Hist
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if h.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", h.Mean())
	}
	if math.Abs(h.Stddev()-2) > 1e-9 {
		t.Fatalf("Stddev = %v, want 2", h.Stddev())
	}
}

// TestHistStddevLargeNearEqualSamples pins the catastrophic-cancellation
// fix: millions of ns-scale samples a hair apart. The old sumSq/n - mean²
// form pushes Σv² to ~4e24, where float64 resolves only multiples of ~5e8 —
// the subtraction then clamped a genuine stddev of 1000 to 0. The shifted
// accumulation recovers it to full precision.
func TestHistStddevLargeNearEqualSamples(t *testing.T) {
	var h Hist
	const n = 2_000_000
	const base = int64(1_500_000_000) // 1.5 s in ns
	for i := 0; i < n; i++ {
		// Alternate base±1000: mean = base, population stddev = 1000 exactly.
		if i%2 == 0 {
			h.Observe(base - 1000)
		} else {
			h.Observe(base + 1000)
		}
	}
	if got := h.Mean(); math.Abs(got-float64(base)) > 1e-3 {
		t.Fatalf("Mean = %v, want %d", got, base)
	}
	if got := h.Stddev(); math.Abs(got-1000) > 1e-3 {
		t.Fatalf("Stddev = %v, want 1000 (catastrophic cancellation?)", got)
	}
}

// TestHistMergeStddevLargeSamples checks that Merge preserves the shifted
// second moment across histograms anchored at different shifts.
func TestHistMergeStddevLargeSamples(t *testing.T) {
	var a, b, whole Hist
	const base = int64(2_000_000_000)
	for i := 0; i < 1_000_000; i++ {
		lo, hi := base-500, base+500
		whole.Observe(lo)
		whole.Observe(hi)
		a.Observe(lo) // a anchors at base-500
		b.Observe(hi) // b anchors at base+500
	}
	a.Merge(&b)
	if got, want := a.Stddev(), whole.Stddev(); math.Abs(got-want) > 1e-3 {
		t.Fatalf("merged Stddev = %v, want %v", got, want)
	}
	if math.Abs(a.Stddev()-500) > 1e-3 {
		t.Fatalf("merged Stddev = %v, want 500", a.Stddev())
	}
	if math.Abs(a.Sum()-whole.Sum()) > 1 {
		t.Fatalf("merged Sum = %v, want %v", a.Sum(), whole.Sum())
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, whole Hist
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		v := int64(rng.Intn(100000))
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged min/max %d/%d, want %d/%d", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-6 {
		t.Fatalf("merged mean %v, want %v", a.Mean(), whole.Mean())
	}
	if a.Quantile(0.9) != whole.Quantile(0.9) {
		t.Fatalf("merged p90 %d, want %d", a.Quantile(0.9), whole.Quantile(0.9))
	}
}

func TestHistMergeEmpty(t *testing.T) {
	var a, b Hist
	a.Observe(10)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 {
		t.Fatal("merge of empty changed count")
	}
	b.Merge(&a)
	if b.Count() != 1 || b.Min() != 10 {
		t.Fatal("merge into empty lost state")
	}
}

func TestHistReset(t *testing.T) {
	var h Hist
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestSummaryString(t *testing.T) {
	var h Hist
	h.Observe(1000)
	s := h.Summarize().String()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "mean=1.0µs") {
		t.Fatalf("Summary string %q missing fields", s)
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Hist
		for _, v := range vals {
			h.Observe(int64(v))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev || cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterSet(t *testing.T) {
	c := NewCounterSet()
	c.Add("reads", 3)
	c.Add("writes", 1)
	c.Add("reads", 2)
	if c.Get("reads") != 5 || c.Get("writes") != 1 {
		t.Fatalf("counters wrong: %v", c)
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter must be 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "reads" || names[1] != "writes" {
		t.Fatalf("Names() = %v", names)
	}
	d := NewCounterSet()
	d.Add("reads", 10)
	d.Add("erases", 7)
	c.Merge(d)
	if c.Get("reads") != 15 || c.Get("erases") != 7 {
		t.Fatalf("after merge: %v", c)
	}
	if s := c.String(); !strings.Contains(s, "reads=15") {
		t.Fatalf("String() = %q", s)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(v)
	}
	if w.Count() != 8 || w.Mean() != 5 {
		t.Fatalf("mean = %v, n = %d", w.Mean(), w.Count())
	}
	if math.Abs(w.Stddev()-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", w.Stddev())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole, a, b Welford
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64()*10 + 100
		whole.Observe(v)
		if i < 1700 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("count %d != %d", a.Count(), whole.Count())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Fatalf("mean %v != %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-6 {
		t.Fatalf("variance %v != %v", a.Variance(), whole.Variance())
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(&b)
	if a.Count() != 0 {
		t.Fatal("merging two empties must stay empty")
	}
	b.Observe(5)
	a.Merge(&b)
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merge into empty lost data")
	}
}

func BenchmarkHistQuantile(b *testing.B) {
	var h Hist
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h.Observe(int64(rng.Intn(10_000_000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
