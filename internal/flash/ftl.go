package flash

import (
	"fmt"
	"math/bits"
)

// Page and block sentinels.
const (
	unmapped = int32(-1)
)

type blockState uint8

const (
	blockFree blockState = iota
	blockActive
	blockFull
)

type blockMeta struct {
	state      blockState
	validPages int32
	writePtr   int32 // next page offset to program within the block
	eraseCount int32
	channel    int32 // the owning channel, b % Channels
}

// FTL is a page-mapped flash translation layer.
//
// Each channel owns an independent pool of blocks and an active block that
// absorbs programs. Host writes stripe across channels round-robin so that
// sequential logical writes exploit channel parallelism, the behaviour the
// paper's §II-B relies on ("the internal parallelism of flash-based SSDs").
//
// A physical page number is block<<shift | offset, with shift the bit
// length of PagesPerBlock-1, so the per-page path decodes a page with a
// shift instead of a division by run-time geometry. When PagesPerBlock is
// a power of two this is exactly block*PagesPerBlock+offset; otherwise
// offsets PagesPerBlock..1<<shift-1 of each block are holes that never
// map.
type FTL struct {
	geom  Geometry
	shift uint // page number = block<<shift | offset

	l2p []int32 // logical page -> physical page, or unmapped
	p2l []int32 // physical page -> logical page, or unmapped (free/invalid/hole)

	blocks []blockMeta

	freeByChan  [][]int // per-channel stacks of free block indices
	activeBlock []int   // per-channel block absorbing programs, or -1
	nextChan    int     // round-robin cursor for host writes

	freeBlocks  int // total blocks in blockFree state
	mappedPages int // number of mapped logical pages

	// Cumulative statistics.
	hostWrites int64 // pages written by the host
	gcWrites   int64 // pages copied by garbage collection
	erases     int64 // blocks erased

	// Per-channel op counts of the last GC episode: the scratch a Plan
	// returned by CollectUntil points into.
	gcReads, gcPrograms, gcErases []int
}

// NewFTL creates an FTL with all blocks free and no mappings.
func NewFTL(g Geometry) (*FTL, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	shift := uint(bits.Len(uint(g.PagesPerBlock - 1)))
	f := &FTL{
		geom:        g,
		shift:       shift,
		l2p:         make([]int32, g.LogicalPages()),
		p2l:         make([]int32, g.Blocks<<shift),
		blocks:      make([]blockMeta, g.Blocks),
		freeByChan:  make([][]int, g.Channels),
		activeBlock: make([]int, g.Channels),
		gcReads:     make([]int, g.Channels),
		gcPrograms:  make([]int, g.Channels),
		gcErases:    make([]int, g.Channels),
	}
	for i := range f.l2p {
		f.l2p[i] = unmapped
	}
	for i := range f.p2l {
		f.p2l[i] = unmapped
	}
	for c := range f.activeBlock {
		f.activeBlock[c] = -1
	}
	// Populate free lists channel by channel, low block numbers first.
	for b := g.Blocks - 1; b >= 0; b-- {
		c := g.BlockChannel(b)
		f.blocks[b].channel = int32(c)
		f.freeByChan[c] = append(f.freeByChan[c], b)
	}
	f.freeBlocks = g.Blocks
	return f, nil
}

// Clone returns a deep copy of the FTL: the mappings, the block states, each
// channel's free stack in its order, the active blocks, the
// round-robin cursor, the counters and the last GC plan's scratch. The copy
// and the receiver share no memory, so writes and collections on one never
// show in the other, and the copy makes exactly the allocation decisions
// the receiver would.
func (f *FTL) Clone() *FTL {
	c := *f
	c.l2p = append([]int32(nil), f.l2p...)
	c.p2l = append([]int32(nil), f.p2l...)
	c.blocks = append([]blockMeta(nil), f.blocks...)
	c.freeByChan = make([][]int, len(f.freeByChan))
	for ch, stack := range f.freeByChan {
		c.freeByChan[ch] = append([]int(nil), stack...)
	}
	c.activeBlock = append([]int(nil), f.activeBlock...)
	c.gcReads = append([]int(nil), f.gcReads...)
	c.gcPrograms = append([]int(nil), f.gcPrograms...)
	c.gcErases = append([]int(nil), f.gcErases...)
	return &c
}

// Geometry returns the device geometry.
func (f *FTL) Geometry() Geometry { return f.geom }

// LogicalPages returns the number of pages exposed to the host.
func (f *FTL) LogicalPages() int { return len(f.l2p) }

// PageBlock returns the erase block containing physical page ppn.
func (f *FTL) PageBlock(ppn int) int { return ppn >> f.shift }

// PageChannel returns the channel that services physical page ppn.
func (f *FTL) PageChannel(ppn int) int { return int(f.blocks[ppn>>f.shift].channel) }

// FreeBlocks returns the number of fully erased blocks.
func (f *FTL) FreeBlocks() int { return f.freeBlocks }

// MappedPages returns the number of logical pages with valid data.
func (f *FTL) MappedPages() int { return f.mappedPages }

// HostWrites returns the cumulative number of host page programs.
func (f *FTL) HostWrites() int64 { return f.hostWrites }

// GCWrites returns the cumulative number of GC page copies.
func (f *FTL) GCWrites() int64 { return f.gcWrites }

// Erases returns the cumulative number of block erases.
func (f *FTL) Erases() int64 { return f.erases }

// WriteAmplification returns (host+gc)/host page programs, or 1 when the
// host has not written yet.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 1
	}
	return float64(f.hostWrites+f.gcWrites) / float64(f.hostWrites)
}

// Lookup returns the physical page holding logical page lpn, or -1 when the
// page has never been written.
func (f *FTL) Lookup(lpn int) int {
	f.checkLPN(lpn)
	return int(f.l2p[lpn])
}

// Write maps logical page lpn to a freshly allocated physical page and
// invalidates the previous mapping. It returns the physical page programmed.
// The caller is responsible for triggering garbage collection when
// NeedGC reports true; Write itself never garbage-collects but will panic if
// the device is truly out of free pages (which indicates the caller ignored
// NeedGC far too long).
func (f *FTL) Write(lpn int) int {
	f.checkLPN(lpn)
	f.invalidate(lpn)
	ppn, b := f.allocate(f.pickWriteChannel())
	f.l2p[lpn] = int32(ppn)
	f.p2l[ppn] = int32(lpn)
	f.blocks[b].validPages++
	f.mappedPages++
	f.hostWrites++
	return ppn
}

// Fill maps logical pages 0..n-1 on a fresh FTL exactly as n Write calls
// in logical order would, without the per-page allocation path: page i
// lands on channel (nextChan+i) mod Channels, so each channel takes every
// Channels-th page, filling blocks popped from its free stack in order.
// The last block opened on each channel stays active even when full, as
// allocate leaves it. Fill panics on an FTL that has opened a block or
// mapped a page, and where the per-page path would find a channel with no
// room and skip it.
func (f *FTL) Fill(n int) {
	if n < 0 || n > len(f.l2p) {
		panic(fmt.Sprintf("flash: Fill of %d pages outside [0,%d]", n, len(f.l2p)))
	}
	if f.freeBlocks != f.geom.Blocks || f.mappedPages != 0 {
		panic("flash: Fill needs a fresh FTL")
	}
	chans, ppb := f.geom.Channels, f.geom.PagesPerBlock
	for k := 0; k < chans && k < n; k++ {
		c := (f.nextChan + k) % chans
		pages := (n - k + chans - 1) / chans // pages k, k+chans, ... < n
		used := (pages + ppb - 1) / ppb
		free := f.freeByChan[c]
		if used > len(free) {
			panic(fmt.Sprintf("flash: Fill of %d pages overflows channel %d", n, c))
		}
		lpn := k
		for j := 0; j < used; j++ {
			b := free[len(free)-1-j]
			inBlock := min(ppb, pages-j*ppb)
			for off := 0; off < inBlock; off++ {
				ppn := b<<f.shift | off
				f.l2p[lpn] = int32(ppn)
				f.p2l[ppn] = int32(lpn)
				lpn += chans
			}
			f.blocks[b].state = blockFull
			f.blocks[b].validPages = int32(inBlock)
			f.blocks[b].writePtr = int32(inBlock)
		}
		last := free[len(free)-used]
		f.blocks[last].state = blockActive
		f.activeBlock[c] = last
		f.freeByChan[c] = free[:len(free)-used]
		f.freeBlocks -= used
	}
	f.nextChan = (f.nextChan + n) % chans
	f.mappedPages = n
	f.hostWrites += int64(n)
}

// Trim drops the mapping for lpn, marking its physical page invalid.
func (f *FTL) Trim(lpn int) {
	f.checkLPN(lpn)
	f.invalidate(lpn)
}

func (f *FTL) checkLPN(lpn int) {
	if lpn < 0 || lpn >= len(f.l2p) {
		panic(fmt.Sprintf("flash: lpn %d out of range [0,%d)", lpn, len(f.l2p)))
	}
}

// invalidate clears any existing mapping for lpn.
func (f *FTL) invalidate(lpn int) {
	old := f.l2p[lpn]
	if old == unmapped {
		return
	}
	f.l2p[lpn] = unmapped
	f.p2l[old] = unmapped
	f.blocks[old>>f.shift].validPages--
	f.mappedPages--
}

// pickWriteChannel advances the round-robin cursor, skipping channels with
// no room at all (every block full and no free block). If every channel is
// exhausted it panics: GC must run before that point.
func (f *FTL) pickWriteChannel() int {
	for i := 0; i < f.geom.Channels; i++ {
		if c := f.advanceChan(); f.channelHasRoom(c) {
			return c
		}
	}
	panic("flash: device out of space on every channel; GC was not run")
}

// advanceChan returns the round-robin cursor and moves it to the next
// channel.
func (f *FTL) advanceChan() int {
	c := f.nextChan
	if f.nextChan++; f.nextChan == f.geom.Channels {
		f.nextChan = 0
	}
	return c
}

func (f *FTL) channelHasRoom(c int) bool {
	if len(f.freeByChan[c]) > 0 {
		return true
	}
	ab := f.activeBlock[c]
	return ab >= 0 && f.blocks[ab].writePtr < int32(f.geom.PagesPerBlock)
}

// allocate returns the next physical page on channel c and its block,
// opening a fresh active block when the current one fills.
func (f *FTL) allocate(c int) (ppn, block int) {
	ab := f.activeBlock[c]
	if ab < 0 || f.blocks[ab].writePtr >= int32(f.geom.PagesPerBlock) {
		if ab >= 0 {
			f.blocks[ab].state = blockFull
		}
		n := len(f.freeByChan[c])
		if n == 0 {
			panic(fmt.Sprintf("flash: channel %d has no free blocks", c))
		}
		ab = f.freeByChan[c][n-1]
		f.freeByChan[c] = f.freeByChan[c][:n-1]
		f.freeBlocks--
		f.blocks[ab].state = blockActive
		f.blocks[ab].writePtr = 0
		f.activeBlock[c] = ab
	}
	ppn = ab<<f.shift | int(f.blocks[ab].writePtr)
	f.blocks[ab].writePtr++
	return ppn, ab
}

// BlockValidPages returns the number of valid pages in block b (test hook).
func (f *FTL) BlockValidPages(b int) int { return int(f.blocks[b].validPages) }

// BlockEraseCount returns how many times block b has been erased.
func (f *FTL) BlockEraseCount(b int) int { return int(f.blocks[b].eraseCount) }

// CheckInvariants verifies internal consistency. It is exercised by tests
// and by the property-based suite; production code never calls it.
func (f *FTL) CheckInvariants() error {
	mapped := 0
	for lpn, ppn := range f.l2p {
		if ppn == unmapped {
			continue
		}
		mapped++
		if f.p2l[ppn] != int32(lpn) {
			return fmt.Errorf("flash: l2p[%d]=%d but p2l[%d]=%d", lpn, ppn, ppn, f.p2l[ppn])
		}
	}
	if mapped != f.mappedPages {
		return fmt.Errorf("flash: mappedPages=%d but %d mappings exist", f.mappedPages, mapped)
	}
	validByBlock := make([]int32, f.geom.Blocks)
	offMask := 1<<f.shift - 1
	for ppn, lpn := range f.p2l {
		if lpn == unmapped {
			continue
		}
		if ppn&offMask >= f.geom.PagesPerBlock {
			return fmt.Errorf("flash: p2l[%d]=%d maps a page past the end of block %d", ppn, lpn, f.PageBlock(ppn))
		}
		if f.l2p[lpn] != int32(ppn) {
			return fmt.Errorf("flash: p2l[%d]=%d but l2p[%d]=%d", ppn, lpn, lpn, f.l2p[lpn])
		}
		validByBlock[f.PageBlock(ppn)]++
	}
	freeCount, activeCount := 0, 0
	for b := range f.blocks {
		if c := f.geom.BlockChannel(b); int(f.blocks[b].channel) != c {
			return fmt.Errorf("flash: block %d records channel %d, owned by %d", b, f.blocks[b].channel, c)
		}
		if f.blocks[b].validPages != validByBlock[b] {
			return fmt.Errorf("flash: block %d validPages=%d, recount=%d",
				b, f.blocks[b].validPages, validByBlock[b])
		}
		switch f.blocks[b].state {
		case blockFree:
			freeCount++
			if validByBlock[b] != 0 {
				return fmt.Errorf("flash: free block %d has %d valid pages", b, validByBlock[b])
			}
		case blockActive:
			activeCount++
		}
	}
	if freeCount != f.freeBlocks {
		return fmt.Errorf("flash: freeBlocks=%d, recount=%d", f.freeBlocks, freeCount)
	}
	for c, list := range f.freeByChan {
		for _, b := range list {
			if f.geom.BlockChannel(b) != c {
				return fmt.Errorf("flash: block %d on free list of channel %d", b, c)
			}
			if f.blocks[b].state != blockFree {
				return fmt.Errorf("flash: non-free block %d on free list", b)
			}
		}
	}
	// Every active block is its own channel's active block, so a full
	// block — the only kind pickVictim returns — is never where allocate
	// programs next.
	slots := 0
	for c, b := range f.activeBlock {
		if b < 0 {
			continue
		}
		slots++
		if f.blocks[b].state != blockActive {
			return fmt.Errorf("flash: channel %d active block %d in state %d", c, b, f.blocks[b].state)
		}
		if int(f.blocks[b].channel) != c {
			return fmt.Errorf("flash: block %d active on channel %d, owned by %d", b, c, f.blocks[b].channel)
		}
	}
	if slots != activeCount {
		return fmt.Errorf("flash: %d active-block slots but %d blocks in the active state", slots, activeCount)
	}
	return nil
}
