package workload

import (
	"math"
	"testing"

	"gcsteering/internal/trace"
)

func opts() Options {
	return Options{Capacity: 4 << 30, Scale: 0.01, Seed: 42}
}

func TestProfilesCoverTableI(t *testing.T) {
	ps := All()
	if len(ps) != 8 {
		t.Fatalf("got %d profiles, want 8", len(ps))
	}
	want := map[string]struct {
		readRatio float64
		requests  int
		avgKB     float64
	}{
		"HPC_W":   {0.201, 500_000, 510.5},
		"HPC_R":   {0.799, 500_000, 510.5},
		"Fin1":    {0.328, 5_334_987, 11.9},
		"hm_0":    {0.355, 3_993_316, 8.3},
		"mds_0":   {0.119, 1_211_034, 7.2},
		"prxy_0":  {0.027, 12_518_968, 2.5},
		"rsrch_0": {0.093, 14_333_655, 8.7},
		"wdev_0":  {0.201, 1_143_261, 9.4},
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		if p.ReadRatio != w.readRatio || p.Requests != w.requests || p.AvgReqKB != w.avgKB {
			t.Errorf("%s: %+v does not match Table I %+v", p.Name, p, w)
		}
	}
	if len(Names()) != 8 {
		t.Fatal("Names() wrong length")
	}
	if _, ok := ByName("Fin1"); !ok {
		t.Fatal("ByName(Fin1) missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestGeneratorValidation(t *testing.T) {
	p := All()[0]
	if _, err := NewGenerator(p, Options{Capacity: 1}); err == nil {
		t.Fatal("tiny capacity accepted")
	}
	bad := p
	bad.Requests = 0
	if _, err := NewGenerator(bad, opts()); err == nil {
		t.Fatal("zero requests accepted")
	}
	bad = p
	bad.MeanIOPS = 0
	if _, err := NewGenerator(bad, opts()); err == nil {
		t.Fatal("zero IOPS accepted")
	}
	bad = p
	bad.RIFrac = 0.8
	bad.WIFrac = 0.8
	if _, err := NewGenerator(bad, opts()); err == nil {
		t.Fatal("overlapping regions accepted")
	}
}

func TestGeneratedTraceMatchesProfile(t *testing.T) {
	for _, p := range All() {
		o := opts()
		o.MaxRequests = 30000
		tr, err := Generate(p, o)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		s := trace.ComputeStats(tr)
		if math.Abs(s.ReadRatio-p.ReadRatio) > 0.02 {
			t.Errorf("%s: read ratio %.3f, want %.3f", p.Name, s.ReadRatio, p.ReadRatio)
		}
		if rel := math.Abs(s.AvgSizeKB-p.AvgReqKB) / p.AvgReqKB; rel > 0.10 {
			t.Errorf("%s: avg size %.1fKB, want %.1fKB (rel %.2f)", p.Name, s.AvgSizeKB, p.AvgReqKB, rel)
		}
		// Long-run arrival rate should be near MeanIOPS.
		iops := float64(s.Requests) / s.Duration.Seconds()
		if iops < p.MeanIOPS*0.5 || iops > p.MeanIOPS*2.0 {
			t.Errorf("%s: effective IOPS %.0f, want ≈%.0f", p.Name, iops, p.MeanIOPS)
		}
		// Every request must fit the volume.
		if s.MaxOffset > o.Capacity {
			t.Errorf("%s: request beyond capacity", p.Name)
		}
	}
}

func TestScaleAndCap(t *testing.T) {
	p := All()[0]
	o := opts()
	o.Scale = 0.001
	g, err := NewGenerator(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total() != 500 {
		t.Fatalf("Total = %d, want 500", g.Total())
	}
	o.MaxRequests = 100
	g, _ = NewGenerator(p, o)
	if g.Total() != 100 {
		t.Fatalf("capped Total = %d, want 100", g.Total())
	}
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("emitted %d, want 100", n)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := All()[2]
	o := opts()
	o.MaxRequests = 1000
	a, _ := Generate(p, o)
	b, _ := Generate(p, o)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	o.Seed = 43
	c, _ := Generate(p, o)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestFigure2Shape verifies the §II-C observation holds for the synthetic
// enterprise traces: ≈90% of reads hit read-intensive pages and ≈95% of
// writes hit write-intensive pages under the paper's 0.9 threshold.
func TestFigure2Shape(t *testing.T) {
	for _, p := range Enterprise() {
		o := opts()
		o.MaxRequests = 60000
		tr, err := Generate(p, o)
		if err != nil {
			t.Fatal(err)
		}
		c := trace.ClassifyPages(tr, 4096, 0.9)
		if got := c.ReadShare(trace.ClassRI); got < 0.80 {
			t.Errorf("%s: only %.1f%% of reads on RI pages (paper avg 89.8%%)", p.Name, got*100)
		}
		if got := c.WriteShare(trace.ClassWI); got < 0.85 {
			t.Errorf("%s: only %.1f%% of writes on WI pages (paper avg 95.5%%)", p.Name, got*100)
		}
	}
}

// Hot read pages must be spread across the address space (so they land on
// all member disks), not clustered at the front.
func TestHotPagesScattered(t *testing.T) {
	p := Enterprise()[0]
	o := opts()
	o.MaxRequests = 20000
	tr, _ := Generate(p, o)
	var quarters [4]int
	for _, r := range tr {
		if !r.Write {
			quarters[int(4*r.Offset/o.Capacity)]++
		}
	}
	// RI region is the first 40% of the space, so the first two quarters
	// should both see substantial read traffic.
	if quarters[0] == 0 || quarters[1] == 0 {
		t.Fatalf("reads clustered: %v", quarters)
	}
}

func TestBurstyArrivals(t *testing.T) {
	p := All()[0]
	o := opts()
	o.MaxRequests = 20000
	tr, _ := Generate(p, o)
	// Compute the coefficient of variation of interarrival times; a bursty
	// process is far more variable than Poisson (CV=1).
	var gaps []float64
	for i := 1; i < len(tr); i++ {
		gaps = append(gaps, float64(tr[i].Timestamp-tr[i-1].Timestamp))
	}
	var mean, m2 float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		m2 += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(m2/float64(len(gaps))) / mean
	if cv < 1.2 {
		t.Fatalf("interarrival CV %.2f; arrivals not bursty", cv)
	}
}

func TestMeanInterarrival(t *testing.T) {
	p := Profile{MeanIOPS: 1000}
	if got := p.MeanInterarrival(); got.Seconds() != 0.001 {
		t.Fatalf("MeanInterarrival = %v", got)
	}
}
