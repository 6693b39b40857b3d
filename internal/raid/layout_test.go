package raid

import "testing"

func layouts() []Layout {
	return []Layout{
		{Level: RAID5, Disks: 5, UnitPages: 16, DiskPages: 256},
		{Level: RAID5, Disks: 7, UnitPages: 16, DiskPages: 256},
		{Level: RAID6, Disks: 6, UnitPages: 16, DiskPages: 256},
	}
}

func TestLayoutValidate(t *testing.T) {
	for _, l := range layouts() {
		if err := l.Validate(); err != nil {
			t.Errorf("%+v: %v", l, err)
		}
	}
	bad := []Layout{
		{Level: RAID5, Disks: 2, UnitPages: 16, DiskPages: 256}, // too few disks
		{Level: RAID6, Disks: 3, UnitPages: 16, DiskPages: 256}, // too few disks
		{Level: RAID5, Disks: 5, UnitPages: 0, DiskPages: 256},  // bad unit
		{Level: RAID5, Disks: 5, UnitPages: 16, DiskPages: 250}, // not unit multiple
		{Level: Level(99), Disks: 5, UnitPages: 16, DiskPages: 256},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted: %+v", i, l)
		}
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{RAID5: "RAID5", RAID6: "RAID6", Level(2): "Level(2)"} {
		if l.String() != want {
			t.Errorf("String() = %q", l.String())
		}
	}
	if (Layout{}).Level != RAID5 {
		t.Error("the zero Level is not RAID5")
	}
}

func TestCapacities(t *testing.T) {
	l := Layout{Level: RAID5, Disks: 5, UnitPages: 16, DiskPages: 256}
	if l.DataDisks() != 4 {
		t.Fatalf("DataDisks = %d", l.DataDisks())
	}
	if l.Stripes() != 16 {
		t.Fatalf("Stripes = %d", l.Stripes())
	}
	if l.LogicalPages() != 16*16*4 {
		t.Fatalf("LogicalPages = %d", l.LogicalPages())
	}
}

func TestRAID5LeftSymmetricParityRotation(t *testing.T) {
	l := Layout{Level: RAID5, Disks: 5, UnitPages: 16, DiskPages: 16 * 10}
	// Left-symmetric: parity walks from the last disk downward.
	want := []int{4, 3, 2, 1, 0, 4, 3, 2, 1, 0}
	for s, w := range want {
		if got := l.ParityDisk(s); got != w {
			t.Errorf("ParityDisk(%d) = %d, want %d", s, got, w)
		}
	}
	// Data disk 0 of each stripe immediately follows parity.
	for s := 0; s < 10; s++ {
		if got := l.DataDisk(s, 0); got != (l.ParityDisk(s)+1)%5 {
			t.Errorf("DataDisk(%d,0) = %d", s, got)
		}
	}
}

func TestRAID6PQAdjacent(t *testing.T) {
	l := Layout{Level: RAID6, Disks: 6, UnitPages: 16, DiskPages: 16 * 12}
	for s := 0; s < 12; s++ {
		p, q := l.ParityDisk(s), l.QDisk(s)
		if q != (p+1)%6 {
			t.Errorf("stripe %d: Q=%d not adjacent to P=%d", s, q, p)
		}
		if p == q {
			t.Errorf("stripe %d: P == Q", s)
		}
	}
}

func TestDataIndexInvertsDataDisk(t *testing.T) {
	for _, l := range layouts() {
		for s := 0; s < l.Stripes(); s++ {
			for idx := 0; idx < l.DataDisks(); idx++ {
				d := l.DataDisk(s, idx)
				if got := l.DataIndex(s, d); got != idx {
					t.Fatalf("%v stripe %d: DataIndex(DataDisk(%d)) = %d", l.Level, s, idx, got)
				}
			}
			if pd := l.ParityDisk(s); pd < 0 || pd >= l.Disks {
				t.Fatalf("%v stripe %d: ParityDisk = %d outside [0, %d)", l.Level, s, pd, l.Disks)
			}
			if l.DataIndex(s, l.ParityDisk(s)) != -1 {
				t.Fatalf("%v: parity disk reported as data", l.Level)
			}
			if l.Level == RAID6 {
				if l.DataIndex(s, l.QDisk(s)) != -1 {
					t.Fatal("RAID6: Q disk reported as data")
				}
			}
		}
	}
}

// Each stripe must place every unit (data + parity) on a distinct disk.
func TestStripeUnitsDistinctDisks(t *testing.T) {
	for _, l := range layouts() {
		for s := 0; s < l.Stripes(); s++ {
			used := map[int]bool{}
			add := func(d int) {
				if d < 0 {
					return
				}
				if used[d] {
					t.Fatalf("%v stripe %d reuses disk %d", l.Level, s, d)
				}
				used[d] = true
			}
			add(l.ParityDisk(s))
			add(l.QDisk(s))
			for i := 0; i < l.DataDisks(); i++ {
				add(l.DataDisk(s, i))
			}
			if len(used) != l.Disks {
				t.Fatalf("%v stripe %d covers %d disks, want %d", l.Level, s, len(used), l.Disks)
			}
		}
	}
}

// Map must be a bijection from logical pages to (disk, page) data slots.
func TestMapBijective(t *testing.T) {
	for _, l := range layouts() {
		seen := make(map[Loc]int)
		for p := 0; p < l.LogicalPages(); p++ {
			loc, err := l.Map(p)
			if err != nil {
				t.Fatalf("%v: Map(%d): %v", l.Level, p, err)
			}
			if loc.Disk < 0 || loc.Disk >= l.Disks {
				t.Fatalf("%v: page %d maps to disk %d", l.Level, p, loc.Disk)
			}
			if loc.Page < 0 || loc.Page >= l.DiskPages {
				t.Fatalf("%v: page %d maps to disk page %d", l.Level, p, loc.Page)
			}
			if prev, dup := seen[loc]; dup {
				t.Fatalf("%v: pages %d and %d collide at %+v", l.Level, prev, p, loc)
			}
			seen[loc] = p
			// Mapped location must never land on a parity unit.
			s := l.StripeOf(p)
			if loc.Disk == l.ParityDisk(s) || (l.QDisk(s) >= 0 && loc.Disk == l.QDisk(s)) {
				t.Fatalf("%v: page %d mapped onto parity disk", l.Level, p)
			}
		}
	}
}

func TestMapOutOfRangeErrors(t *testing.T) {
	l := layouts()[0]
	for _, p := range []int{-1, l.LogicalPages()} {
		if _, err := l.Map(p); err == nil {
			t.Errorf("Map(%d) did not error", p)
		}
	}
}

func TestSplitExtentCoversExactly(t *testing.T) {
	for _, l := range layouts() {
		total := l.LogicalPages()
		for _, tc := range []struct{ page, pages int }{
			{0, 1}, {0, l.UnitPages}, {3, l.UnitPages}, {0, total},
			{l.UnitPages - 1, 2}, {7, 3 * l.UnitPages}, {total - 1, 1},
		} {
			if tc.page+tc.pages > total {
				continue
			}
			exts, err := l.SplitExtent(tc.page, tc.pages)
			if err != nil {
				t.Fatalf("%v: SplitExtent(%d, %d): %v", l.Level, tc.page, tc.pages, err)
			}
			sum := 0
			for i, e := range exts {
				sum += e.Pages
				if e.Pages <= 0 || e.Pages > l.UnitPages {
					t.Fatalf("%v: extent %d has %d pages", l.Level, i, e.Pages)
				}
				// First page of the extent must agree with Map.
				logical := tc.page + sumBefore(exts[:i])
				loc, _ := l.Map(logical)
				if loc.Disk != e.Disk || loc.Page != e.Page {
					t.Fatalf("%v: extent %d at %+v, Map says %+v", l.Level, i, e, loc)
				}
			}
			if sum != tc.pages {
				t.Fatalf("%v: extents cover %d pages, want %d", l.Level, sum, tc.pages)
			}
		}
	}
}

func sumBefore(exts []Extent) int {
	s := 0
	for _, e := range exts {
		s += e.Pages
	}
	return s
}

func TestSplitExtentBadRangesError(t *testing.T) {
	l := layouts()[0]
	for _, tc := range []struct{ page, pages int }{
		{0, 0}, {0, -1}, {-1, 1}, {l.LogicalPages(), 1}, {l.LogicalPages() - 1, 2},
	} {
		if _, err := l.SplitExtent(tc.page, tc.pages); err == nil {
			t.Errorf("SplitExtent(%d, %d) did not error", tc.page, tc.pages)
		}
	}
}
