package flash

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
)

// digest feeds ints into a 64-bit FNV-1a hash.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(xs ...int) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(x))
		d.h.Write(d.buf[:])
	}
}

// pageAddr decodes a physical page into its block, its offset in the block
// and the channel that services it.
func pageAddr(f *FTL, ppn int) (block, off, ch int) {
	block = f.PageBlock(ppn)
	return block, ppn - block<<f.shift, f.PageChannel(ppn)
}

// allocationDigests drives a fixed-seed script of host writes, trims,
// watermark GC and forced GC on a fresh FTL, and
// returns one digest of where every host write landed — its block, offset
// and channel — and one of every GC episode's per-channel counts and of
// the final translation.
func allocationDigests(t *testing.T, g Geometry) (writes, plans uint64) {
	t.Helper()
	f := mustFTL(t, g)
	lp := g.LogicalPages()
	rng := rand.New(rand.NewSource(18))
	wd, pd := newDigest(), newDigest()
	episode := func(p Plan) {
		pd.add(p.Victims, p.PagesMoved, p.Erases)
		pd.add(p.ChannelReads...)
		pd.add(p.ChannelPrograms...)
		pd.add(p.ChannelErases...)
	}
	for i := 0; i < 30000; i++ {
		lpn := rng.Intn(lp)
		if rng.Intn(10) == 0 {
			f.Trim(lpn)
		} else {
			b, off, ch := pageAddr(f, f.Write(lpn))
			wd.add(b, off, ch)
		}
		if f.NeedGC(2) {
			episode(f.CollectUntil(6, 0))
		}
		if i%997 == 0 {
			episode(f.CollectUntil(0, 1+rng.Intn(3)))
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.GCWrites() == 0 || f.Erases() < int64(g.Blocks) {
		t.Fatalf("PagesPerBlock %d: %d GC writes and %d erases; the script is vacuous",
			g.PagesPerBlock, f.GCWrites(), f.Erases())
	}
	t.Logf("PagesPerBlock %d: %d GC writes, %d erases", g.PagesPerBlock, f.GCWrites(), f.Erases())
	pd.add(f.FreeBlocks(), f.MappedPages(), int(f.GCWrites()), int(f.Erases()))
	// The final translation pins where GC relocated each surviving page.
	for lpn := 0; lpn < lp; lpn++ {
		if ppn := f.Lookup(lpn); ppn >= 0 {
			b, off, ch := pageAddr(f, ppn)
			pd.add(lpn, b, off, ch)
		}
	}
	return wd.h.Sum64(), pd.h.Sum64()
}

// TestAllocationDecisionsPinned pins the FTL's placement and GC decisions
// for a fixed script: which page each host write lands on, and how many
// GC reads, programs and erases each episode puts on each channel. The
// digests record blocks, offsets and channels, not page numbers; any
// change to victim choice, free-stack order or channel rotation moves
// them. The 24-page geometry pins the numbering of blocks whose size is
// not a power of two.
func TestAllocationDecisionsPinned(t *testing.T) {
	cases := []struct {
		ppb           int
		writes, plans uint64
	}{
		{32, 0x27822feaa382f173, 0x27b59bb47886a752},
		{24, 0x2cef3f25ba1645af, 0x4090e99b9dec7bd5},
	}
	for _, c := range cases {
		g := testGeom()
		g.PagesPerBlock = c.ppb
		w, p := allocationDigests(t, g)
		if w != c.writes || p != c.plans {
			t.Errorf("PagesPerBlock %d: digests writes=%#x plans=%#x, want %#x %#x",
				c.ppb, w, p, c.writes, c.plans)
		}
	}
}
