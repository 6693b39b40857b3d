package flash

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzFTL drives a random write/trim stream with watermark and forced GC
// over a random valid geometry — block sizes that are not powers of two
// included — and checks the full invariant set after every GC episode and
// read-your-writes against a shadow map at the end. A nonzero fill first
// maps fill mod (LogicalPages+1) pages with Fill, which must leave exactly
// the state as many in-order Writes leave.
func FuzzFTL(f *testing.F) {
	f.Add(int64(1), uint8(31), uint8(3), uint8(15), uint8(2), uint16(3000), uint16(0))    // testGeom
	f.Add(int64(2), uint8(23), uint8(3), uint8(15), uint8(2), uint16(3000), uint16(0))    // 24 pages per block
	f.Add(int64(3), uint8(0), uint8(1), uint8(9), uint8(4), uint16(500), uint16(0))       // 1 page per block
	f.Add(int64(4), uint8(6), uint8(7), uint8(15), uint8(2), uint16(2000), uint16(0))     // 7 pages, 8 channels
	f.Add(int64(5), uint8(63), uint8(0), uint8(7), uint8(3), uint16(4000), uint16(0))     // 64 pages, 1 channel
	f.Add(int64(6), uint8(23), uint8(3), uint8(15), uint8(2), uint16(3000), uint16(1000)) // Fill first
	f.Fuzz(func(t *testing.T, seed int64, ppb, chans, blocksPerChan, op uint8, n, fill uint16) {
		channels := 1 + int(chans%8)
		g := Geometry{
			PageSize:      4096,
			PagesPerBlock: 1 + int(ppb%64),
			Blocks:        channels * (1 + int(blocksPerChan%32)),
			Channels:      channels,
			OverProvision: []float64{0.1, 0.15, 0.2, 0.3, 0.45}[op%5],
		}
		if g.Validate() != nil {
			t.Skip()
		}
		ftl, err := NewFTL(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		lp := g.LogicalPages()
		low := 2 + rng.Intn(channels)
		target := low + 1 + rng.Intn(channels)
		shadow := make([]bool, lp) // true = mapped
		if k := int(fill) % (lp + 1); k > 0 {
			want, err := NewFTL(g)
			if err != nil {
				t.Fatal(err)
			}
			for lpn := 0; lpn < k; lpn++ {
				want.Write(lpn)
				shadow[lpn] = true
			}
			ftl.Fill(k)
			if !reflect.DeepEqual(ftl, want) {
				t.Fatalf("%v: Fill(%d) differs from %d in-order writes", g, k, k)
			}
		}
		episode := func(p Plan, what string, i int) {
			if err := ftl.CheckInvariants(); err != nil {
				t.Fatalf("%v after %s GC at op %d: %v", g, what, i, err)
			}
			if r, w := sum(p.ChannelReads), sum(p.ChannelPrograms); r != p.PagesMoved || w != p.PagesMoved {
				t.Fatalf("%s GC at op %d: %d reads and %d programs for %d moved pages", what, i, r, w, p.PagesMoved)
			}
		}
		for i := 0; i < int(n%4000); i++ {
			lpn := rng.Intn(lp)
			switch r := rng.Intn(100); {
			case r < 10:
				ftl.Trim(lpn)
				shadow[lpn] = false
			case r < 12:
				episode(ftl.CollectUntil(0, 1+rng.Intn(3)), "forced", i)
			default:
				ftl.Write(lpn)
				shadow[lpn] = true
			}
			if ftl.NeedGC(low) {
				episode(ftl.CollectUntil(target, 0), "watermark", i)
			}
		}
		if err := ftl.CheckInvariants(); err != nil {
			t.Fatalf("%v at the end: %v", g, err)
		}
		for lpn, mapped := range shadow {
			if got := ftl.Lookup(lpn); mapped != (got >= 0) {
				t.Fatalf("%v: lpn %d shadow mapped=%v, ftl=%d", g, lpn, mapped, got)
			}
		}
	})
}
