package rebuild

import (
	"testing"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// fakeDisk completes ops after fixed latencies, counts the pages it reads
// and writes, and carries a defect surface: latent and corrupt page sets
// that RepairPages clears, plus GC and backlog signals.
type fakeDisk struct {
	eng      *sim.Engine
	pages    int
	readLat  sim.Time
	writeLat sim.Time

	gcUntil sim.Time // InGC while now < gcUntil
	backlog sim.Time // constant MaxBacklog

	latent  map[int]bool
	corrupt map[int]bool
	reads   int // pages read
	writes  int // pages written
	lastW   int // first page of the last write
}

func newFakeDisk(eng *sim.Engine, pages int) *fakeDisk {
	return &fakeDisk{eng: eng, pages: pages, readLat: 50 * sim.Microsecond,
		writeLat: 500 * sim.Microsecond, latent: map[int]bool{}, corrupt: map[int]bool{}}
}

func (f *fakeDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	f.reads += pages
	if done != nil {
		f.eng.At(now+f.readLat, done)
	}
	return nil
}

func (f *fakeDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	f.writes += pages
	f.lastW = page
	if done != nil {
		f.eng.At(now+f.writeLat, done)
	}
	return nil
}

func (f *fakeDisk) LogicalPages() int              { return f.pages }
func (f *fakeDisk) InGC(t sim.Time) bool           { return t < f.gcUntil }
func (f *fakeDisk) MaxBacklog(t sim.Time) sim.Time { return f.backlog }

func (f *fakeDisk) hit(m map[int]bool, page, pages int) bool {
	for p := page; p < page+pages; p++ {
		if m[p] {
			return true
		}
	}
	return false
}

func (f *fakeDisk) LatentError(page, pages int) bool { return f.hit(f.latent, page, pages) }

func (f *fakeDisk) VerifyError(now sim.Time, page, pages int) bool {
	return f.hit(f.corrupt, page, pages)
}

func (f *fakeDisk) RepairPages(page, pages int) (latent, corrupt int) {
	for p := page; p < page+pages; p++ {
		if f.latent[p] {
			delete(f.latent, p)
			latent++
		}
		if f.corrupt[p] {
			delete(f.corrupt, p)
			corrupt++
		}
	}
	return latent, corrupt
}

// testLayout is a 5-member RAID5 of 10 stripes of 16-page units.
func testLayout() raid.Layout {
	return raid.Layout{Level: raid.RAID5, Disks: 5, UnitPages: 16, DiskPages: 160}
}

// newArray builds an array of fake disks. Each disk has 60 pages past the
// layout's range, room for a ReservedSink.
func newArray(t *testing.T, lay raid.Layout) (*sim.Engine, *raid.Array, []*fakeDisk) {
	t.Helper()
	eng := sim.NewEngine()
	fakes := make([]*fakeDisk, lay.Disks)
	disks := make([]raid.Disk, lay.Disks)
	for i := range fakes {
		fakes[i] = newFakeDisk(eng, lay.DiskPages+60)
		disks[i] = fakes[i]
	}
	arr, err := raid.NewArray(eng, lay, disks)
	if err != nil {
		t.Fatal(err)
	}
	return eng, arr, fakes
}

func allStripes(lay raid.Layout) []int {
	stripes := make([]int, lay.Stripes())
	for i := range stripes {
		stripes[i] = i
	}
	return stripes
}

// walkModes builds each of the three modes over an array at mbps MB/s,
// with stepPages the pages one step moves at the cap. The rebuild fails
// member 2 first.
var walkModes = []struct {
	name      string
	stepPages func(raid.Layout) int
	build     func(*sim.Engine, *raid.Array, float64) (*walker, error)
}{
	{"rebuild", func(l raid.Layout) int { return l.UnitPages }, func(eng *sim.Engine, arr *raid.Array, mbps float64) (*walker, error) {
		arr.FailDisk(2)
		spare := newFakeDisk(eng, arr.Layout().DiskPages)
		rb, err := New(eng, arr, &SpareSink{Disk: spare}, mbps, 4096)
		if err != nil {
			return nil, err
		}
		return &rb.walker, nil
	}},
	{"scrub", func(l raid.Layout) int { return l.UnitPages * l.Disks }, func(eng *sim.Engine, arr *raid.Array, mbps float64) (*walker, error) {
		sc, err := NewScrub(eng, arr, mbps, 4096)
		if err != nil {
			return nil, err
		}
		return &sc.walker, nil
	}},
	{"resync", func(l raid.Layout) int { return l.UnitPages * l.Disks }, func(eng *sim.Engine, arr *raid.Array, mbps float64) (*walker, error) {
		rs, err := NewResync(eng, arr, mbps, 4096, allStripes(arr.Layout()))
		if err != nil {
			return nil, err
		}
		return &rs.walker, nil
	}},
}

// TestPacingEnforcesBandwidthCap pins the shared pacing for every mode:
// with I/O faster than the cap, stripe k starts at exactly k intervals, so
// the walk closes at n intervals — one step (a unit for rebuild, a stripe
// for scrub and resync) per PaceInterval at the cap.
func TestPacingEnforcesBandwidthCap(t *testing.T) {
	for _, m := range walkModes {
		t.Run(m.name, func(t *testing.T) {
			lay := testLayout()
			eng, arr, _ := newArray(t, lay)
			w, err := m.build(eng, arr, 10)
			if err != nil {
				t.Fatal(err)
			}
			var end sim.Time
			w.OnComplete = func(now sim.Time) { end = now }
			w.Start(0)
			eng.Run()
			interval := PaceInterval(int64(m.stepPages(lay)*4096), 10)
			if want := sim.Time(lay.Stripes()) * interval; end != want {
				t.Fatalf("walk closed at %v, want %v (%d steps of %v)", end, want, lay.Stripes(), interval)
			}
		})
	}
}

// TestStartIsIdempotent checks that a second Start while a walk runs
// does not drive a second chain: every mode walks each stripe once and
// completes once.
func TestStartIsIdempotent(t *testing.T) {
	for _, m := range walkModes {
		t.Run(m.name, func(t *testing.T) {
			lay := testLayout()
			eng, arr, fakes := newArray(t, lay)
			w, err := m.build(eng, arr, 100)
			if err != nil {
				t.Fatal(err)
			}
			completions := 0
			w.OnComplete = func(sim.Time) { completions++ }
			w.Start(0)
			if !w.Running() {
				t.Fatal("not running after Start")
			}
			w.Start(0)
			eng.Run()
			if w.Running() || completions != 1 {
				t.Fatalf("running %v after drain, %d completions; want false and 1", w.Running(), completions)
			}
			if got := fakes[0].reads; got != lay.DiskPages {
				t.Fatalf("member 0 read %d pages, want %d: each stripe once", got, lay.DiskPages)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	for _, m := range walkModes {
		for _, mbps := range []float64{0, -5} {
			eng, arr, _ := newArray(t, testLayout())
			if _, err := m.build(eng, arr, mbps); err == nil {
				t.Errorf("%s: bandwidth %v accepted", m.name, mbps)
			}
		}
	}
	eng, arr, _ := newArray(t, testLayout())
	if _, err := NewScrub(eng, arr, 100, 0); err == nil {
		t.Error("scrub: zero page size accepted")
	}
	if _, err := NewResync(eng, arr, 100, 0, nil); err == nil {
		t.Error("resync: zero page size accepted")
	}
	arr.FailDisk(1)
	if _, err := New(eng, arr, &SpareSink{}, 100, 0); err == nil {
		t.Error("rebuild: zero page size accepted")
	}
}

// stripeStepper returns a func that steps the engine until count rises:
// one whole background stripe, from its predecessor's completion to its
// own start.
func stripeStepper(t *testing.T, eng *sim.Engine, count func() int64) func() {
	return func() {
		n := count()
		for count() == n {
			if !eng.Step() {
				t.Fatal("event queue drained mid-stripe")
			}
		}
	}
}
