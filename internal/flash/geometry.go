// Package flash models the state machine of NAND flash management inside an
// SSD: page-mapped address translation, out-of-place writes, invalidation,
// and greedy garbage collection over a pool of erase blocks spread across
// parallel channels.
//
// The package is purely logical — it decides *which* physical pages move and
// *which* blocks are erased, but attaches no time to anything. The timed
// device model in internal/ssd turns the decisions into channel occupancy.
// Keeping the two concerns apart makes the FTL invariants directly testable.
package flash

import "fmt"

// Geometry describes the physical shape of one simulated SSD.
type Geometry struct {
	// PageSize is the flash page size in bytes (the unit of read/program).
	PageSize int
	// PagesPerBlock is the number of pages in one erase block.
	PagesPerBlock int
	// Blocks is the total number of physical erase blocks on the device.
	Blocks int
	// Channels is the number of independent flash channels. Blocks are
	// assigned to channels round-robin (block b lives on channel b%Channels),
	// so each channel owns Blocks/Channels blocks.
	Channels int
	// OverProvision is the fraction of raw capacity hidden from the host
	// (0.10 means 10% spare). It determines the logical page count.
	OverProvision float64
}

// DefaultGeometry mirrors a small enterprise SATA SSD scaled down for
// simulation speed: 4 KB pages, 1 MB blocks, 8 channels, 10% spare.
func DefaultGeometry() Geometry {
	return Geometry{
		PageSize:      4096,
		PagesPerBlock: 256,
		Blocks:        512,
		Channels:      8,
		OverProvision: 0.10,
	}
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("flash: PageSize %d must be positive", g.PageSize)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock %d must be positive", g.PagesPerBlock)
	case g.Blocks <= 0:
		return fmt.Errorf("flash: Blocks %d must be positive", g.Blocks)
	case g.Channels <= 0:
		return fmt.Errorf("flash: Channels %d must be positive", g.Channels)
	case g.Blocks%g.Channels != 0:
		return fmt.Errorf("flash: Blocks %d not divisible by Channels %d", g.Blocks, g.Channels)
	case g.OverProvision <= 0 || g.OverProvision >= 0.5:
		return fmt.Errorf("flash: OverProvision %v outside (0, 0.5)", g.OverProvision)
	}
	// GC needs room to breathe: at least two spare blocks per channel.
	if g.spareBlocks() < 2*g.Channels {
		return fmt.Errorf("flash: over-provisioning yields %d spare blocks, need >= %d",
			g.spareBlocks(), 2*g.Channels)
	}
	return nil
}

// PhysPages is the raw number of physical pages.
func (g Geometry) PhysPages() int { return g.Blocks * g.PagesPerBlock }

// spareBlocks is the number of blocks hidden by over-provisioning.
func (g Geometry) spareBlocks() int {
	return g.Blocks - g.LogicalPages()/g.PagesPerBlock
}

// LogicalPages is the number of pages exposed to the host.
func (g Geometry) LogicalPages() int {
	lp := int(float64(g.PhysPages()) * (1 - g.OverProvision))
	// Round down to a whole number of blocks so accounting stays simple.
	return lp - lp%g.PagesPerBlock
}

// LogicalBytes is the host-visible capacity in bytes.
func (g Geometry) LogicalBytes() int64 {
	return int64(g.LogicalPages()) * int64(g.PageSize)
}

// BlockChannel returns the channel owning physical block b.
func (g Geometry) BlockChannel(b int) int { return b % g.Channels }
