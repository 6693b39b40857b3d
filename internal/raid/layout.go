package raid

import "fmt"

// Level enumerates the supported RAID levels: the parity organisations
// GC-Steering relies on to redirect around, and rebuild, a member. The zero
// value is the paper's RAID5.
type Level int

const (
	RAID5 Level = iota
	RAID6
)

// String returns the conventional level name.
func (l Level) String() string {
	switch l {
	case RAID5:
		return "RAID5"
	case RAID6:
		return "RAID6"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Loc addresses one page on one member disk.
type Loc struct {
	Disk int
	Page int // logical page number within the disk
}

// Layout maps the array's logical page space onto member disks.
//
// RAID5 uses the left-symmetric layout (Linux MD's default): the parity
// unit of stripe s lives on disk (disks-1 - s%disks) and data units fill
// the following disks in rotating order. RAID6 rotates P and Q together,
// with Q immediately after P.
type Layout struct {
	Level     Level
	Disks     int // member disk count
	UnitPages int // stripe unit ("chunk") size in pages
	DiskPages int // usable pages per member disk
}

// Validate reports whether the layout is consistent.
func (l Layout) Validate() error {
	min := map[Level]int{RAID5: 3, RAID6: 4}
	m, ok := min[l.Level]
	if !ok {
		return fmt.Errorf("raid: unknown level %d", int(l.Level))
	}
	switch {
	case l.Disks < m:
		return fmt.Errorf("raid: %v needs >= %d disks, got %d", l.Level, m, l.Disks)
	case l.UnitPages <= 0:
		return fmt.Errorf("raid: UnitPages %d must be positive", l.UnitPages)
	case l.DiskPages <= 0:
		return fmt.Errorf("raid: DiskPages %d must be positive", l.DiskPages)
	case l.DiskPages%l.UnitPages != 0:
		return fmt.Errorf("raid: DiskPages %d not a multiple of UnitPages %d", l.DiskPages, l.UnitPages)
	}
	return nil
}

// DataDisks is the number of data-bearing units per stripe.
func (l Layout) DataDisks() int {
	switch l.Level {
	case RAID5:
		return l.Disks - 1
	case RAID6:
		return l.Disks - 2
	default:
		panic("raid: unknown level")
	}
}

// Stripes is the number of stripes on the array.
func (l Layout) Stripes() int { return l.DiskPages / l.UnitPages }

// LogicalPages is the host-visible capacity of the array in pages.
func (l Layout) LogicalPages() int { return l.Stripes() * l.UnitPages * l.DataDisks() }

// StripeOf returns the stripe index containing logical array page p.
func (l Layout) StripeOf(p int) int {
	return p / (l.UnitPages * l.DataDisks())
}

// ParityDisk returns the disk holding P for stripe s.
func (l Layout) ParityDisk(s int) int { return l.Disks - 1 - s%l.Disks }

// QDisk returns the disk holding Q for stripe s (RAID6 only, else -1).
func (l Layout) QDisk(s int) int {
	if l.Level != RAID6 {
		return -1
	}
	return (l.ParityDisk(s) + 1) % l.Disks
}

// DataDisk returns the disk holding data unit idx (0-based) of stripe s.
func (l Layout) DataDisk(s, idx int) int {
	switch l.Level {
	case RAID5:
		return (l.ParityDisk(s) + 1 + idx) % l.Disks
	case RAID6:
		return (l.QDisk(s) + 1 + idx) % l.Disks
	default:
		panic("raid: unknown level")
	}
}

// DataIndex inverts DataDisk: it returns the data unit index stored on
// disk d in stripe s, or -1 when d holds parity in that stripe.
func (l Layout) DataIndex(s, d int) int {
	switch l.Level {
	case RAID5:
		pd := l.ParityDisk(s)
		if d == pd {
			return -1
		}
		return (d - pd - 1 + l.Disks) % l.Disks
	case RAID6:
		if d == l.ParityDisk(s) || d == l.QDisk(s) {
			return -1
		}
		qd := l.QDisk(s)
		return (d - qd - 1 + l.Disks) % l.Disks
	default:
		panic("raid: unknown level")
	}
}

// UnitPage returns the first disk page of stripe s's units.
func (l Layout) UnitPage(s int) int { return s * l.UnitPages }

// Map translates logical array page p to its location. The offset within
// the unit is preserved. An out-of-range page is a caller error,
// returned rather than panicking: Map sits on the public request path.
func (l Layout) Map(p int) (Loc, error) {
	if p < 0 || p >= l.LogicalPages() {
		return Loc{}, fmt.Errorf("raid: logical page %d outside array of %d pages", p, l.LogicalPages())
	}
	unit := p / l.UnitPages // global data-unit index
	off := p % l.UnitPages
	s := unit / l.DataDisks()
	idx := unit % l.DataDisks()
	return Loc{Disk: l.DataDisk(s, idx), Page: l.UnitPage(s) + off}, nil
}

// Extent is a contiguous page run on one disk, tagged with the stripe and
// data-unit index it belongs to.
type Extent struct {
	Disk    int
	Page    int // first disk page
	Pages   int
	Stripe  int
	DataIdx int // data-unit index within the stripe
}

// SplitExtent decomposes a logical extent [page, page+pages) into per-disk
// extents, each confined to a single stripe unit. Runs are emitted in
// logical order. Malformed extents — non-positive length or any page
// outside the array — are caller errors, returned rather than panicking:
// SplitExtent sits on the public request path.
func (l Layout) SplitExtent(page, pages int) ([]Extent, error) {
	return l.SplitExtentAppend(nil, page, pages)
}

// SplitExtentAppend is SplitExtent appending into dst, for hot-path callers
// that reuse a scratch buffer across requests instead of allocating one per
// call. On error dst is returned unchanged.
func (l Layout) SplitExtentAppend(dst []Extent, page, pages int) ([]Extent, error) {
	if pages <= 0 {
		return dst, fmt.Errorf("raid: extent [%d,%d) has non-positive length", page, page+pages)
	}
	if page < 0 || page+pages > l.LogicalPages() {
		return dst, fmt.Errorf("raid: extent [%d,%d) outside array of %d pages", page, page+pages, l.LogicalPages())
	}
	out := dst
	p := page
	remain := pages
	for remain > 0 {
		loc, _ := l.Map(p) // range validated above: Map cannot fail
		unitOff := p % l.UnitPages
		run := l.UnitPages - unitOff
		if run > remain {
			run = remain
		}
		s := l.StripeOf(p)
		idx := (p / l.UnitPages) % l.DataDisks()
		out = append(out, Extent{Disk: loc.Disk, Page: loc.Page, Pages: run, Stripe: s, DataIdx: idx})
		p += run
		remain -= run
	}
	return out, nil
}
