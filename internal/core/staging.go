package core

import (
	"fmt"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// Staging is the staging space of GC-Steering in one of the paper's two
// configurations (§III-A): a dedicated spare SSD, or the pre-reserved space
// of every SSD inside the array. Locations are allocated one page at a
// time; redirected write data gets redundancy (mirrored on reserved
// staging, parity-protected in the array for dedicated staging), migrated
// hot-read data gets a single droppable copy (RAID0-style).
type Staging interface {
	// Name returns "Dedicated" or "Reserved" as in Fig. 10.
	Name() string
	// AllocRead reserves a slot for one migrated hot-read page. exclude is
	// the page's home disk (reserved staging avoids it; a copy on the disk
	// whose GC we are dodging would be useless). With requireIdle the
	// allocation fails unless it can land on devices that are not
	// collecting — steering onto an equally-busy device would not dodge
	// anything. ok=false means no suitable slot exists.
	AllocRead(now sim.Time, exclude int, requireIdle bool) (StageLoc, bool)
	// AllocWrite reserves a slot (with redundancy) for one redirected
	// write page under the same rules.
	AllocWrite(now sim.Time, exclude int, requireIdle bool) (StageLoc, bool)
	// Read fetches one staged page, preferring a copy whose device is not
	// collecting.
	Read(now sim.Time, loc StageLoc, done func(now sim.Time))
	// Write stores one staged page (both copies when mirrored).
	Write(now sim.Time, loc StageLoc, done func(now sim.Time))
	// Free returns a location's slots to the pool.
	Free(loc StageLoc)
	// Reserve removes a specific location's slots from the pools; it is
	// the recovery path: after a crash, D_Table restored from NVRAM names
	// slots that must not be handed out again. Reserving an already-
	// allocated slot is an error.
	Reserve(loc StageLoc) error
	// SetUnavailable excludes a member device from future allocations
	// (reserved staging during reconstruction); pass -1 to clear.
	SetUnavailable(disk int)
	// FreeReadSlots and FreeWriteSlots report remaining capacity.
	FreeReadSlots() int
	FreeWriteSlots() int
}

// slotUsableFrac caps how much of a staging region is ever handed out as
// slots. The remainder is churn headroom: a staging region driven to 100%
// occupancy would pin its device at near-total FTL utilization, where every
// GC victim is almost entirely valid and write amplification explodes.
const slotUsableFrac = 0.6

// slotPool hands out single-page slots from a fixed range.
type slotPool struct {
	free []int32
}

func newSlotPool(base, n int) *slotPool {
	p := &slotPool{free: make([]int32, 0, n)}
	// Stack ordered so low pages are handed out first.
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, int32(base+i))
	}
	return p
}

func (p *slotPool) alloc() (int32, bool) {
	n := len(p.free)
	if n == 0 {
		return 0, false
	}
	s := p.free[n-1]
	p.free = p.free[:n-1]
	return s, true
}

func (p *slotPool) put(s int32) { p.free = append(p.free, s) }

// take removes a specific slot from the pool, reporting whether it was
// free.
func (p *slotPool) take(s int32) bool {
	for i, v := range p.free {
		if v == s {
			p.free = append(p.free[:i], p.free[i+1:]...)
			return true
		}
	}
	return false
}

func (p *slotPool) len() int { return len(p.free) }

// DedicatedStaging implements the dedicated-spare-SSD configuration. The
// spare's pages split into a hot-read region and a write region. Redirected
// writes are stored once: their loss is tolerable because GC-Steering
// updates the array parity in place when it redirects a write, so the data
// is reconstructible from the array (§III-E).
type DedicatedStaging struct {
	dev     raid.Disk
	readEnd int32
	reads   *slotPool
	writes  *slotPool
	retired bool // the spare joined the array; see Retire
}

// NewDedicatedStaging uses readFrac of the spare for hot-read copies and
// the rest for redirected writes.
func NewDedicatedStaging(dev raid.Disk, readFrac float64) (*DedicatedStaging, error) {
	if readFrac < 0 || readFrac > 1 {
		return nil, fmt.Errorf("core: readFrac %v outside [0,1]", readFrac)
	}
	total := dev.LogicalPages()
	if total < 2 {
		return nil, fmt.Errorf("core: dedicated staging device too small")
	}
	usable := int(slotUsableFrac * float64(total))
	readSlots := int(readFrac * float64(usable))
	return &DedicatedStaging{
		dev:     dev,
		readEnd: int32(readSlots),
		reads:   newSlotPool(0, readSlots),
		writes:  newSlotPool(readSlots, usable-readSlots),
	}, nil
}

// Name implements Staging.
func (d *DedicatedStaging) Name() string { return "Dedicated" }

// AllocRead implements Staging.
func (d *DedicatedStaging) AllocRead(now sim.Time, exclude int, requireIdle bool) (StageLoc, bool) {
	if d.retired || requireIdle && d.dev.InGC(now) {
		return StageLoc{}, false
	}
	p, ok := d.reads.alloc()
	if !ok {
		return StageLoc{}, false
	}
	return StageLoc{Dev0: 0, Page0: p, Dev1: NoMirror}, true
}

// AllocWrite implements Staging.
func (d *DedicatedStaging) AllocWrite(now sim.Time, exclude int, requireIdle bool) (StageLoc, bool) {
	if d.retired || requireIdle && d.dev.InGC(now) {
		return StageLoc{}, false
	}
	p, ok := d.writes.alloc()
	if !ok {
		return StageLoc{}, false
	}
	return StageLoc{Dev0: 0, Page0: p, Dev1: NoMirror}, true
}

// Read implements Staging.
func (d *DedicatedStaging) Read(now sim.Time, loc StageLoc, done func(sim.Time)) {
	must(d.dev.Read(now, int(loc.Page0), 1, done))
}

// Write implements Staging.
func (d *DedicatedStaging) Write(now sim.Time, loc StageLoc, done func(sim.Time)) {
	must(d.dev.Write(now, int(loc.Page0), 1, done))
}

// Free implements Staging.
func (d *DedicatedStaging) Free(loc StageLoc) {
	if loc.Page0 < d.readEnd {
		d.reads.put(loc.Page0)
	} else {
		d.writes.put(loc.Page0)
	}
}

// Reserve implements Staging.
func (d *DedicatedStaging) Reserve(loc StageLoc) error {
	pool := d.writes
	if loc.Page0 < d.readEnd {
		pool = d.reads
	}
	if !pool.take(loc.Page0) {
		return fmt.Errorf("core: slot %d not free", loc.Page0)
	}
	return nil
}

// SetUnavailable implements Staging (no-op: the spare is outside the array).
func (d *DedicatedStaging) SetUnavailable(int) {}

// Retire stops all further allocations: the spare has replaced a failed
// member (§III-D case ②), so its pages now hold stripe units. Entries
// already staged on it stay readable until the reclaimer drains them.
func (d *DedicatedStaging) Retire() { d.retired = true }

// FreeReadSlots implements Staging.
func (d *DedicatedStaging) FreeReadSlots() int { return d.reads.len() }

// FreeWriteSlots implements Staging.
func (d *DedicatedStaging) FreeWriteSlots() int { return d.writes.len() }

// ReservedStaging implements the paper's default configuration: a reserved
// page range at the top of every member SSD. Hot-read copies are stored
// once, interleaved across members (RAID0-style); redirected write data is
// mirrored on two distinct members (RAID1-style), so a single SSD failure
// loses nothing (§III-E).
type ReservedStaging struct {
	eng     *sim.Engine // bound by New; mirrored writes fan in on it
	devs    []raid.Disk
	base    int32 // first reserved page on each member
	readEnd int32 // reserved pages below this offset hold hot-read copies
	reads   []*slotPool
	writes  []*slotPool

	rr          int // round-robin cursor
	unavailable int

	// pick's scratch, consumed by the caller before the next pick: idle
	// candidates first (with capacity for busy ones appended behind them),
	// busy candidates second.
	idleScratch []int
	busyScratch []int
}

// NewReservedStaging reserves reservedPages on each member starting at
// page base (the first page past the array's usable area), splitting each
// member's reservation with readFrac for hot-read copies.
func NewReservedStaging(devs []raid.Disk, base, reservedPages int, readFrac float64) (*ReservedStaging, error) {
	if len(devs) < 2 {
		return nil, fmt.Errorf("core: reserved staging needs >= 2 members for mirroring")
	}
	if readFrac < 0 || readFrac > 1 {
		return nil, fmt.Errorf("core: readFrac %v outside [0,1]", readFrac)
	}
	if reservedPages < 2 {
		return nil, fmt.Errorf("core: reservedPages %d too small", reservedPages)
	}
	for i, d := range devs {
		if d.LogicalPages() < base+reservedPages {
			return nil, fmt.Errorf("core: member %d has %d pages, reservation needs %d",
				i, d.LogicalPages(), base+reservedPages)
		}
	}
	usable := int(slotUsableFrac * float64(reservedPages))
	readSlots := int(readFrac * float64(usable))
	s := &ReservedStaging{
		devs:        devs,
		base:        int32(base),
		readEnd:     int32(base + readSlots),
		unavailable: -1,
		idleScratch: make([]int, 0, 2*len(devs)),
		busyScratch: make([]int, 0, len(devs)),
	}
	for range devs {
		s.reads = append(s.reads, newSlotPool(base, readSlots))
		s.writes = append(s.writes, newSlotPool(base+readSlots, usable-readSlots))
	}
	return s, nil
}

// Name implements Staging.
func (r *ReservedStaging) Name() string { return "Reserved" }

// pick selects up to want distinct member devices with a free slot in the
// given pools, skipping skip0 and the unavailable member, preferring
// members not currently collecting. With onlyIdle, collecting members are
// excluded entirely: redirecting onto a device that is itself collecting
// would trade one GC queue for another.
func (r *ReservedStaging) pick(now sim.Time, pools []*slotPool, skip0, want int, onlyIdle bool) []int {
	// idleScratch has capacity for every device twice, so appending busy
	// behind idle below never reallocates.
	idle, busy := r.idleScratch[:0], r.busyScratch[:0]
	n := len(r.devs)
	for i := 0; i < n; i++ {
		d := (r.rr + i) % n
		if d == skip0 || d == r.unavailable || pools[d].len() == 0 {
			continue
		}
		if r.devs[d].InGC(now) {
			if !onlyIdle {
				busy = append(busy, d)
			}
		} else {
			idle = append(idle, d)
		}
	}
	r.rr = (r.rr + 1) % n
	out := append(idle, busy...)
	if len(out) > want {
		out = out[:want]
	}
	return out
}

// AllocRead implements Staging.
func (r *ReservedStaging) AllocRead(now sim.Time, exclude int, requireIdle bool) (StageLoc, bool) {
	cands := r.pick(now, r.reads, exclude, 1, requireIdle)
	if len(cands) < 1 {
		return StageLoc{}, false
	}
	p, _ := r.reads[cands[0]].alloc()
	return StageLoc{Dev0: int32(cands[0]), Page0: p, Dev1: NoMirror}, true
}

// AllocWrite implements Staging.
func (r *ReservedStaging) AllocWrite(now sim.Time, exclude int, requireIdle bool) (StageLoc, bool) {
	cands := r.pick(now, r.writes, exclude, 2, requireIdle)
	if len(cands) < 2 {
		return StageLoc{}, false
	}
	p0, _ := r.writes[cands[0]].alloc()
	p1, _ := r.writes[cands[1]].alloc()
	return StageLoc{Dev0: int32(cands[0]), Page0: p0, Dev1: int32(cands[1]), Page1: p1}, true
}

// Read implements Staging: it reads the copy whose member is available and
// not busy collecting, if it has a choice.
func (r *ReservedStaging) Read(now sim.Time, loc StageLoc, done func(sim.Time)) {
	dev, page := loc.Dev0, loc.Page0
	if loc.Mirrored() {
		switch {
		case int(dev) == r.unavailable:
			dev, page = loc.Dev1, loc.Page1
		case int(loc.Dev1) != r.unavailable && r.devs[dev].InGC(now) && !r.devs[loc.Dev1].InGC(now):
			dev, page = loc.Dev1, loc.Page1
		}
	}
	must(r.devs[dev].Read(now, int(page), 1, done))
}

// Write implements Staging: mirrored locations complete when both copies
// are durable.
func (r *ReservedStaging) Write(now sim.Time, loc StageLoc, done func(sim.Time)) {
	if !loc.Mirrored() {
		must(r.devs[loc.Dev0].Write(now, int(loc.Page0), 1, done))
		return
	}
	cb := r.eng.Join(2, done)
	must(r.devs[loc.Dev0].Write(now, int(loc.Page0), 1, cb))
	must(r.devs[loc.Dev1].Write(now, int(loc.Page1), 1, cb))
}

// Free implements Staging.
func (r *ReservedStaging) Free(loc StageLoc) {
	r.freeSlot(loc.Dev0, loc.Page0)
	if loc.Mirrored() {
		r.freeSlot(loc.Dev1, loc.Page1)
	}
}

func (r *ReservedStaging) freeSlot(dev, page int32) {
	if page < r.readEnd {
		r.reads[dev].put(page)
	} else {
		r.writes[dev].put(page)
	}
}

// Reserve implements Staging.
func (r *ReservedStaging) Reserve(loc StageLoc) error {
	if err := r.reserveSlot(loc.Dev0, loc.Page0); err != nil {
		return err
	}
	if loc.Mirrored() {
		if err := r.reserveSlot(loc.Dev1, loc.Page1); err != nil {
			return err
		}
	}
	return nil
}

func (r *ReservedStaging) reserveSlot(dev, page int32) error {
	pool := r.writes[dev]
	if page < r.readEnd {
		pool = r.reads[dev]
	}
	if !pool.take(page) {
		return fmt.Errorf("core: slot (%d,%d) not free", dev, page)
	}
	return nil
}

// SetUnavailable implements Staging.
func (r *ReservedStaging) SetUnavailable(disk int) { r.unavailable = disk }

// FreeReadSlots implements Staging.
func (r *ReservedStaging) FreeReadSlots() int {
	n := 0
	for _, p := range r.reads {
		n += p.len()
	}
	return n
}

// FreeWriteSlots implements Staging.
func (r *ReservedStaging) FreeWriteSlots() int {
	n := 0
	for _, p := range r.writes {
		n += p.len()
	}
	return n
}
