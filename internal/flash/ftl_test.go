package flash

import (
	"math/rand"
	"reflect"
	"testing"
)

func testGeom() Geometry {
	return Geometry{
		PageSize:      4096,
		PagesPerBlock: 32,
		Blocks:        64,
		Channels:      4,
		OverProvision: 0.20,
	}
}

// testGeoms returns testGeom and a variant whose block size is not a power
// of two, so its page numbering has holes between blocks.
func testGeoms() []Geometry {
	odd := testGeom()
	odd.PagesPerBlock = 24
	return []Geometry{testGeom(), odd}
}

func mustFTL(t *testing.T, g Geometry) *FTL {
	t.Helper()
	f, err := NewFTL(g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{PageSize: 0, PagesPerBlock: 32, Blocks: 64, Channels: 4, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 0, Blocks: 64, Channels: 4, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 0, Channels: 4, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 0, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 63, Channels: 4, OverProvision: 0.2},  // not divisible
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 4, OverProvision: 0},    // no spare
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 4, OverProvision: 0.6},  // absurd spare
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 32, OverProvision: 0.2}, // < 2 spare/chan
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: geometry %+v unexpectedly valid", i, g)
		}
	}
}

func TestGeometryDerivedSizes(t *testing.T) {
	for _, g := range testGeoms() {
		if g.PhysPages() != 64*g.PagesPerBlock {
			t.Fatalf("PhysPages = %d", g.PhysPages())
		}
		lp := g.LogicalPages()
		if lp%g.PagesPerBlock != 0 {
			t.Fatalf("LogicalPages %d not block aligned", lp)
		}
		if lp >= g.PhysPages() {
			t.Fatalf("LogicalPages %d >= PhysPages %d", lp, g.PhysPages())
		}
		if g.LogicalBytes() != int64(lp)*4096 {
			t.Fatalf("LogicalBytes = %d", g.LogicalBytes())
		}
		f := mustFTL(t, g)
		if f.LogicalPages() != lp {
			t.Fatalf("FTL LogicalPages = %d, want %d", f.LogicalPages(), lp)
		}
		for b := 0; b < g.Blocks; b++ {
			for _, off := range []int{0, 1, g.PagesPerBlock - 1} {
				ppn := b<<f.shift | off
				if f.PageBlock(ppn) != b {
					t.Fatalf("PagesPerBlock %d: PageBlock(%d) = %d, want %d", g.PagesPerBlock, ppn, f.PageBlock(ppn), b)
				}
				if f.PageChannel(ppn) != g.BlockChannel(b) {
					t.Fatal("PageChannel disagrees with BlockChannel")
				}
			}
		}
	}
}

func TestFreshFTL(t *testing.T) {
	f := mustFTL(t, testGeom())
	if f.FreeBlocks() != 64 {
		t.Fatalf("FreeBlocks = %d, want 64", f.FreeBlocks())
	}
	if f.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d", f.MappedPages())
	}
	if f.Lookup(0) != -1 {
		t.Fatal("fresh FTL has a mapping")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadBack(t *testing.T) {
	f := mustFTL(t, testGeom())
	p1 := f.Write(10)
	if got := f.Lookup(10); got != p1 {
		t.Fatalf("Lookup(10) = %d, want %d", got, p1)
	}
	p2 := f.Write(10) // overwrite relocates
	if p2 == p1 {
		t.Fatal("overwrite reused the same physical page")
	}
	if got := f.Lookup(10); got != p2 {
		t.Fatalf("Lookup after overwrite = %d, want %d", got, p2)
	}
	if f.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", f.MappedPages())
	}
	if f.HostWrites() != 2 {
		t.Fatalf("HostWrites = %d, want 2", f.HostWrites())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesStripeAcrossChannels(t *testing.T) {
	for _, g := range testGeoms() {
		f := mustFTL(t, g)
		seen := make(map[int]bool)
		for lpn := 0; lpn < g.Channels; lpn++ {
			seen[f.PageChannel(f.Write(lpn))] = true
		}
		if len(seen) != g.Channels {
			t.Fatalf("first %d writes hit %d channels, want all %d", g.Channels, len(seen), g.Channels)
		}
	}
}

func TestTrim(t *testing.T) {
	f := mustFTL(t, testGeom())
	f.Write(5)
	f.Trim(5)
	if f.Lookup(5) != -1 {
		t.Fatal("Trim left a mapping")
	}
	if f.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d", f.MappedPages())
	}
	f.Trim(5) // trimming an unmapped page is a no-op
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLPNBoundsPanic(t *testing.T) {
	f := mustFTL(t, testGeom())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range lpn did not panic")
		}
	}()
	f.Write(f.Geometry().LogicalPages())
}

func fillSequential(f *FTL) {
	for lpn := 0; lpn < f.Geometry().LogicalPages(); lpn++ {
		f.Write(lpn)
	}
}

func TestFillToCapacity(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	if f.MappedPages() != f.Geometry().LogicalPages() {
		t.Fatalf("MappedPages = %d, want %d", f.MappedPages(), f.Geometry().LogicalPages())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() > f.Geometry().Blocks-f.Geometry().LogicalPages()/f.Geometry().PagesPerBlock {
		t.Fatalf("FreeBlocks = %d after full fill", f.FreeBlocks())
	}
}

// TestFillMatchesWriteLoop checks Fill against the per-page path it
// replaces: on a fresh FTL, Fill(n) must leave the exact state n in-order
// Writes leave — mappings, block metadata, free stacks, active blocks,
// cursor and counters — and the two must stay identical through a GC'd
// random overwrite phase afterwards.
func TestFillMatchesWriteLoop(t *testing.T) {
	geom := func(ppb, blocks, chans int, op float64) Geometry {
		return Geometry{PageSize: 4096, PagesPerBlock: ppb, Blocks: blocks, Channels: chans, OverProvision: op}
	}
	full := -1 // n = LogicalPages()
	cases := []struct {
		name string
		g    Geometry
		n    int
	}{
		{"32 pages, full", testGeom(), full},
		{"32 pages, partial block", testGeom(), 1001},
		{"24 pages, full", testGeoms()[1], full},
		{"100 pages, full", geom(100, 64, 4, 0.2), full},
		{"100 pages, half", geom(100, 64, 4, 0.2), 2550},
		{"fewer pages than channels", testGeom(), 3},
		{"one page", testGeom(), 1},
		{"no pages", testGeom(), 0},
		{"1 page per block, 1 channel", geom(1, 40, 1, 0.3), full},
		{"7 pages, 8 channels", geom(7, 128, 8, 0.2), full},
	}
	for _, c := range cases {
		n := c.n
		if n == full {
			n = c.g.LogicalPages()
		}
		want, got := mustFTL(t, c.g), mustFTL(t, c.g)
		for lpn := 0; lpn < n; lpn++ {
			want.Write(lpn)
		}
		got.Fill(n)
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Fill(%d) differs from %d in-order writes", c.name, n, n)
		}
		if n == 0 {
			continue
		}
		churn(want, 5, 4*c.g.LogicalPages())
		churn(got, 5, 4*c.g.LogicalPages())
		if want.Erases() == 0 {
			t.Fatalf("%s: the overwrite phase never collected; test is vacuous", c.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Fill(%d) and the write loop diverge under the same overwrites", c.name, n)
		}
	}
}

// TestFillPanics checks that Fill refuses what it cannot place exactly as
// the write loop would: an FTL that has written a page, and a page count
// outside the logical range.
func TestFillPanics(t *testing.T) {
	written := mustFTL(t, testGeom())
	written.Write(5)
	for _, c := range []struct {
		name string
		f    *FTL
		n    int
	}{
		{"written FTL", written, 10},
		{"negative count", mustFTL(t, testGeom()), -1},
		{"past the logical range", mustFTL(t, testGeom()), testGeom().LogicalPages() + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Fill(%d) did not panic", c.name, c.n)
				}
			}()
			c.f.Fill(c.n)
		}()
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(1))
	// Random overwrites shrink free space until GC is needed, then GC must
	// restore the target.
	low, target := 2, 6
	episodes := 0
	for i := 0; i < 20000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(low) {
			plan := f.CollectUntil(target, 0)
			episodes++
			if plan.Empty() {
				t.Fatal("GC needed but plan empty")
			}
			if f.FreeBlocks() < target {
				t.Fatalf("after GC FreeBlocks = %d, want >= %d", f.FreeBlocks(), target)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("after GC episode %d: %v", episodes, err)
			}
		}
	}
	if episodes == 0 {
		t.Fatal("workload never triggered GC; test is vacuous")
	}
	if f.GCWrites() == 0 || f.Erases() == 0 {
		t.Fatalf("GC stats empty: gcWrites=%d erases=%d", f.GCWrites(), f.Erases())
	}
	if wa := f.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification %v, want > 1 under random overwrites", wa)
	}
}

func TestGCPreservesMappings(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(2))
	// Track a shadow of which LPNs exist; all must remain readable with
	// consistent translations after GC.
	for i := 0; i < 5000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(2) {
			f.CollectUntil(6, 0)
		}
	}
	for lpn := 0; lpn < f.Geometry().LogicalPages(); lpn++ {
		ppn := f.Lookup(lpn)
		if ppn < 0 {
			t.Fatalf("lpn %d lost its mapping", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestGCPlanCountsMatchCounters checks each episode's per-channel op
// counts against the FTL's cumulative counters: every moved page is one
// read and one program, every victim one erase, and no episode's counts
// carry over into the next one's plan.
func TestGCPlanCountsMatchCounters(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(3))
	episodes := 0
	for i := 0; i < 3000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if !f.NeedGC(2) {
			continue
		}
		beforeMoves, beforeErases := f.GCWrites(), f.Erases()
		plan := f.CollectUntil(6, 0)
		episodes++
		moved := int(f.GCWrites() - beforeMoves)
		erased := int(f.Erases() - beforeErases)
		if plan.PagesMoved != moved {
			t.Fatalf("episode %d: PagesMoved=%d, gcWrites delta=%d", episodes, plan.PagesMoved, moved)
		}
		if r, p := sum(plan.ChannelReads), sum(plan.ChannelPrograms); r != moved || p != moved {
			t.Fatalf("episode %d: %d reads and %d programs for %d moved pages", episodes, r, p, moved)
		}
		if e := sum(plan.ChannelErases); e != erased || plan.Erases != erased || plan.Victims != erased {
			t.Fatalf("episode %d: %d channel erases, Erases=%d, Victims=%d, erase delta=%d",
				episodes, e, plan.Erases, plan.Victims, erased)
		}
	}
	if episodes < 2 {
		t.Fatalf("%d GC episodes; the reset across episodes is untested", episodes)
	}
	// An episode that finds nothing to collect still starts from zero.
	plan := f.CollectUntil(0, 0)
	if !plan.Empty() || sum(plan.ChannelReads)+sum(plan.ChannelPrograms)+sum(plan.ChannelErases) != 0 {
		t.Fatalf("idle episode carried counts over: %+v", plan)
	}
}

func TestForcedGCCollectsEvenWhenNotNeeded(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	// Overwrite a little so some blocks have invalid pages but free space is
	// still plentiful.
	for lpn := 0; lpn < 100; lpn++ {
		f.Write(lpn)
	}
	if f.NeedGC(2) {
		t.Fatal("precondition: GC should not be needed yet")
	}
	plan := f.CollectUntil(0, 1) // minVictims=1 forces a collection
	if plan.Erases < 1 {
		t.Fatal("forced GC did not erase any block")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForcedGCNoGarbageIsNoop(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f) // sequential fill: every full block is 100% valid
	plan := f.CollectUntil(0, 1)
	if !plan.Empty() {
		t.Fatalf("GC collected %d victims with zero invalid pages", plan.Erases)
	}
}

func TestEraseCountsAdvance(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(2) {
			f.CollectUntil(6, 0)
		}
	}
	total := 0
	for b := 0; b < f.Geometry().Blocks; b++ {
		total += f.BlockEraseCount(b)
	}
	if int64(total) != f.Erases() {
		t.Fatalf("sum of per-block erase counts %d != Erases() %d", total, f.Erases())
	}
}

// ftlView is what a caller can observe of an FTL: every translation and
// the counters.
type ftlView struct {
	lookups []int
	free    int
	erases  int64
	wa      float64
}

func viewOf(f *FTL) ftlView {
	v := ftlView{free: f.FreeBlocks(), erases: f.Erases(), wa: f.WriteAmplification()}
	for lpn := 0; lpn < f.Geometry().LogicalPages(); lpn++ {
		v.lookups = append(v.lookups, f.Lookup(lpn))
	}
	return v
}

// churn randomly overwrites f with GC, from a stream seeded by seed, and
// returns the plan of its last GC episode.
func churn(f *FTL, seed int64, writes int) Plan {
	rng := rand.New(rand.NewSource(seed))
	var last Plan
	for i := 0; i < writes; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(2) {
			last = f.CollectUntil(6, 0)
		}
	}
	return last
}

// counts copies a plan's per-channel op counts out of the FTL's scratch.
func counts(p Plan) [3][]int {
	return [3][]int{
		append([]int(nil), p.ChannelReads...),
		append([]int(nil), p.ChannelPrograms...),
		append([]int(nil), p.ChannelErases...),
	}
}

// TestCloneIsDeep checks that a clone of a warmed, collected FTL is an
// exact and independent copy: equal on every observable, making the same
// placement and GC decisions as its source under the same writes, and
// sharing no state with it in either direction — the last GC plan's
// per-channel counts included.
func TestCloneIsDeep(t *testing.T) {
	src := mustFTL(t, testGeom())
	fillSequential(src)
	srcPlan := churn(src, 1, 5000)
	if src.Erases() == 0 || srcPlan.Empty() {
		t.Fatal("warm-up never collected; test is vacuous")
	}
	srcCounts := counts(srcPlan)
	c := src.Clone()
	if &c.gcReads[0] == &src.gcReads[0] || &c.gcPrograms[0] == &src.gcPrograms[0] ||
		&c.gcErases[0] == &src.gcErases[0] {
		t.Fatal("clone shares its GC count scratch with the source")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	warmed := viewOf(src)
	if !reflect.DeepEqual(viewOf(c), warmed) {
		t.Fatal("clone differs from its source")
	}

	clonePlan := churn(c, 2, 3000)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clone after churn: %v", err)
	}
	cloneCounts := counts(clonePlan)
	if reflect.DeepEqual(cloneCounts, srcCounts) {
		t.Fatal("the clone's last episode matches the source's; test is vacuous")
	}
	if !reflect.DeepEqual(counts(srcPlan), srcCounts) {
		t.Fatal("GC on the clone changed the source's last plan")
	}
	if reflect.DeepEqual(viewOf(c), warmed) {
		t.Fatal("churn left the clone unchanged; test is vacuous")
	}
	if !reflect.DeepEqual(viewOf(src), warmed) {
		t.Fatal("writes and GC on the clone changed the source")
	}

	// The same writes on the source must land exactly where they landed on
	// the clone: free stacks, active blocks and the cursor were copied.
	churn(src, 2, 3000)
	if err := src.CheckInvariants(); err != nil {
		t.Fatalf("source after churn: %v", err)
	}
	churned := viewOf(c)
	if !reflect.DeepEqual(viewOf(src), churned) {
		t.Fatal("source and clone diverged under identical writes")
	}

	if last := churn(src, 3, 3000); reflect.DeepEqual(counts(last), cloneCounts) {
		t.Fatal("the source's last episode matches the clone's; test is vacuous")
	}
	if !reflect.DeepEqual(viewOf(c), churned) {
		t.Fatal("writes and GC on the source changed the clone")
	}
	if !reflect.DeepEqual(counts(clonePlan), cloneCounts) {
		t.Fatal("GC on the source changed the clone's last plan")
	}
}
