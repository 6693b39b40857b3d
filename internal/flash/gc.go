package flash

// Plan is the outcome of one garbage-collection episode. The FTL state is
// already updated when a Plan is returned; the plan exists so the timed
// device model can charge the channel time the episode consumed. The
// device issues every op of an episode at the same instant, so a channel's
// share depends only on how many GC reads, programs and erases landed on
// it, and that is all the plan records.
//
// The per-channel slices are scratch owned by the FTL: the next
// CollectUntil zeroes and refills them.
type Plan struct {
	Victims    int // blocks collected
	PagesMoved int
	Erases     int
	// ChannelReads, ChannelPrograms and ChannelErases count, per channel,
	// the valid pages read out of victims, the relocation programs and the
	// block erases. Reads and erases land on the victim's channel; a
	// program lands where the relocation was allocated.
	ChannelReads, ChannelPrograms, ChannelErases []int
}

// Empty reports whether the episode did no work.
func (p Plan) Empty() bool { return p.Victims == 0 }

// NeedGC reports whether free space has fallen to or below the low
// watermark (in blocks).
func (f *FTL) NeedGC(lowWater int) bool { return f.freeBlocks <= lowWater }

// CollectUntil runs a greedy garbage-collection episode: it repeatedly
// selects the fullest-of-invalid victim block, relocates its valid pages,
// and erases it, until the free-block count reaches targetFree and at least
// minVictims blocks have been collected. Blocks whose pages are all valid
// are never selected (collecting them frees nothing). The returned plan
// counts each channel's page reads, programs and erases so the caller can
// model their latency; it is valid until the next CollectUntil.
//
// minVictims > 0 forces work even when free space is already above the
// target; the GGC policy uses this to make every device collect when any
// one device collects, reproducing the higher total GC counts the paper
// reports for GGC (Fig. 7b).
func (f *FTL) CollectUntil(targetFree, minVictims int) Plan {
	clear(f.gcReads)
	clear(f.gcPrograms)
	clear(f.gcErases)
	plan := Plan{ChannelReads: f.gcReads, ChannelPrograms: f.gcPrograms, ChannelErases: f.gcErases}
	for f.freeBlocks < targetFree || plan.Victims < minVictims {
		b := f.pickVictim()
		if b < 0 {
			break // nothing collectible
		}
		f.collectBlock(b, &plan)
	}
	return plan
}

// pickVictim returns the full block with the most invalid pages, or -1 when
// no block has any invalid page. Ties break toward lower block numbers for
// determinism.
func (f *FTL) pickVictim() int {
	best, bestInvalid := -1, 0
	ppb := int32(f.geom.PagesPerBlock)
	for b := range f.blocks {
		if f.blocks[b].state != blockFull {
			continue
		}
		invalid := int(ppb - f.blocks[b].validPages)
		if invalid > bestInvalid {
			best, bestInvalid = b, invalid
		}
	}
	return best
}

// collectBlock relocates every valid page of block b and erases it,
// counting the reads, programs and erase on plan's channels. Destinations
// rotate across channels just like host writes do, so the relocation
// programs proceed in parallel instead of serializing behind the victim's
// own channel.
func (f *FTL) collectBlock(b int, plan *Plan) {
	ch := int(f.blocks[b].channel)
	moved := 0
	base := b << f.shift
	for off, lpn := range f.p2l[base : base+f.geom.PagesPerBlock] {
		if lpn == unmapped {
			continue
		}
		to, toBlock, toChan := f.allocateForGC()
		// Relocate the mapping.
		f.p2l[base+off] = unmapped
		f.blocks[b].validPages--
		f.l2p[lpn] = int32(to)
		f.p2l[to] = lpn
		f.blocks[toBlock].validPages++
		plan.ChannelPrograms[toChan]++
		moved++
	}
	f.gcWrites += int64(moved)
	plan.ChannelReads[ch] += moved
	plan.PagesMoved += moved
	// Erase. The victim was full, so it was no channel's active block and
	// no active slot needs clearing.
	f.blocks[b].state = blockFree
	f.blocks[b].writePtr = 0
	f.blocks[b].eraseCount++
	f.erases++
	plan.ChannelErases[ch]++
	plan.Erases++
	plan.Victims++
	f.freeByChan[ch] = append(f.freeByChan[ch], b)
	f.freeBlocks++
}

// allocateForGC allocates a destination page for a GC move, preferring the
// channel under the round-robin cursor and spilling to the next channels
// when it is full, and returns the page, its block and its channel.
//
// The victim needs no exclusion as a destination. pickVictim returns only
// full blocks, and a full block is on no free stack (it gets there only
// once erased) and is no channel's active block (allocate replaces an
// active block the moment it marks it full). So allocate can never hand
// out a page of the block being collected.
func (f *FTL) allocateForGC() (ppn, block, channel int) {
	c := f.advanceChan()
	for i := 0; i < f.geom.Channels; i++ {
		if f.channelHasRoom(c) {
			ppn, block = f.allocate(c)
			return ppn, block, c
		}
		if c++; c == f.geom.Channels {
			c = 0
		}
	}
	panic("flash: no room anywhere for GC relocation; over-provisioning too small")
}
