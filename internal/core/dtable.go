// Package core implements GC-Steering, the paper's contribution: a
// controller-level scheme that steers popular read requests and all write
// requests away from SSDs that are busy garbage-collecting (or from a
// degraded array during reconstruction) into a staging space, and reclaims
// the redirected write data afterwards.
//
// The five functional components of the paper's Figure 3 map to this
// package as follows: the Popular Data Identifier is RLRU, the Staging
// Space Manager is the Staging implementations, the Request Redirector is
// Steering.route, the Reclaimer is reclaim.go, and the Administration
// Interface is the Config struct plus the public facade package.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
)

// PageKey addresses one page on one member disk of the array.
type PageKey struct {
	Disk int32
	Page int32
}

// bitmap is a fixed-size page set, one bit per page.
type bitmap []uint64

func newBitmap(pages int) bitmap { return make(bitmap, (pages+63)/64) }

func (b bitmap) has(p int32) bool { return b[p>>6]&(1<<(uint(p)&63)) != 0 }
func (b bitmap) set(p int32)      { b[p>>6] |= 1 << (uint(p) & 63) }
func (b bitmap) unset(p int32)    { b[p>>6] &^= 1 << (uint(p) & 63) }

// first returns the lowest set page; ok is false when b is empty.
func (b bitmap) first() (p int32, ok bool) {
	for i, w := range b {
		if w != 0 {
			return int32(i*64 + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// StageLoc is the staging-space location of one redirected page. Mirrored
// (RAID1-style) locations carry a second copy in Dev1/Page1; single-copy
// locations set Dev1 = -1. Devices are indexed in the staging space's own
// device list (the array members for reserved staging, the spare for
// dedicated staging).
type StageLoc struct {
	Dev0, Page0 int32
	Dev1, Page1 int32
}

// NoMirror is the Dev1 value of single-copy locations.
const NoMirror int32 = -1

// Mirrored reports whether the location holds two copies.
func (l StageLoc) Mirrored() bool { return l.Dev1 != NoMirror }

// Entry is one D_Table record: where a redirected page lives and whether
// it is redirected write data (Flag=true in the paper, meaning it must be
// reclaimed) or a migrated hot-read copy (Flag=false, droppable).
type Entry struct {
	Loc StageLoc
	// Write is the paper's Flag: true for redirected write data.
	Write bool
	// Gen increments on every update so the reclaimer can detect that an
	// entry changed while its write-back was in flight.
	Gen uint32
}

// DTable is the redirect log of GC-Steering (the paper's D_Table): a map
// from home location to staging location. The paper stores it in
// battery-backed NVRAM; Snapshot/Restore model the persistence path.
//
// The map is the entry store; per-disk page bitmaps index it. The
// redirector looks up every page of every data sub-op and most lookups
// miss, so Get answers a miss from one bit. The reclaimer's next-run search
// scans the write bits instead of walking the map, and ForEach visits
// entries in (disk, page) order, so every visit is deterministic.
type DTable struct {
	m     map[PageKey]Entry
	has   []bitmap // per disk: pages with an entry
	wr    []bitmap // per disk: pages with a Write entry
	pages int      // home pages per disk

	writeEntries int // entries with Write=true
}

// NewDTable returns an empty table for home pages [0, pages) on disks
// [0, disks).
func NewDTable(disks, pages int) *DTable {
	t := &DTable{m: make(map[PageKey]Entry), pages: pages}
	for d := 0; d < disks; d++ {
		t.has = append(t.has, newBitmap(pages))
		t.wr = append(t.wr, newBitmap(pages))
	}
	return t
}

// holds reports whether k lies inside the table's disks and pages.
func (t *DTable) holds(k PageKey) bool {
	return k.Disk >= 0 && int(k.Disk) < len(t.has) && k.Page >= 0 && int(k.Page) < t.pages
}

// Get returns the entry for k.
func (t *DTable) Get(k PageKey) (Entry, bool) {
	if !t.has[k.Disk].has(k.Page) {
		return Entry{}, false
	}
	return t.m[k], true
}

// Put inserts or replaces the entry for k, bumping the generation. Keys
// come from the array's validated layout, so a key outside the table is an
// internal invariant violation and panics.
func (t *DTable) Put(k PageKey, loc StageLoc, write bool) Entry {
	if !t.holds(k) {
		panic(fmt.Sprintf("core: D_Table key (%d,%d) outside %d disks x %d pages",
			k.Disk, k.Page, len(t.has), t.pages))
	}
	old, existed := t.Get(k)
	e := Entry{Loc: loc, Write: write, Gen: old.Gen + 1}
	t.m[k] = e
	t.has[k.Disk].set(k.Page)
	if existed && old.Write {
		t.writeEntries--
	}
	if write {
		t.writeEntries++
		t.wr[k.Disk].set(k.Page)
	} else {
		t.wr[k.Disk].unset(k.Page)
	}
	return e
}

// Delete removes the entry for k. Deleting an absent key is a no-op.
func (t *DTable) Delete(k PageKey) {
	if old, ok := t.Get(k); ok {
		if old.Write {
			t.writeEntries--
		}
		delete(t.m, k)
		t.has[k.Disk].unset(k.Page)
		t.wr[k.Disk].unset(k.Page)
	}
}

// Len returns the number of live entries.
func (t *DTable) Len() int { return len(t.m) }

// ForEach visits every entry in (disk, page) order. fn may replace or
// delete the entry it visits; an entry deleted before its visit is skipped.
func (t *DTable) ForEach(fn func(PageKey, Entry)) {
	for d, b := range t.has {
		for i := range b {
			for w := b[i]; w != 0; w &= w - 1 {
				k := PageKey{Disk: int32(d), Page: int32(i*64 + bits.TrailingZeros64(w))}
				if b.has(k.Page) {
					fn(k, t.m[k])
				}
			}
		}
	}
}

// WriteLen returns the number of redirected-write entries awaiting reclaim.
func (t *DTable) WriteLen() int { return t.writeEntries }

// Run is a contiguous range of same-disk pages with live write entries,
// produced for the reclaimer. Merging contiguous pages lets the reclaim
// write-back hit the home disk with large sequential writes, the paper's
// "sequential data blocks ... merged into a large data block" optimization.
type Run struct {
	Disk  int32
	Page  int32 // first home page
	Pages int32
}

// FirstWriteRunFor returns the lowest-page run of write entries homed on
// disk: the run starting at the lowest write page, extended over the
// following contiguous write pages when merge is set (with merge=false
// every page is its own run, the ablation configuration). The reclaimer
// drains one run per step. ok is false when the disk has no write entries.
func (t *DTable) FirstWriteRunFor(disk int32, merge bool) (Run, bool) {
	wr := t.wr[disk]
	p, ok := wr.first()
	if !ok {
		return Run{}, false
	}
	run := Run{Disk: disk, Page: p, Pages: 1}
	if merge {
		for next := p + 1; int(next) < t.pages && wr.has(next); next++ {
			run.Pages++
		}
	}
	return run, true
}

// snapshotRecord is the gob wire form of one entry.
type snapshotRecord struct {
	Key   PageKey
	Entry Entry
}

// Snapshot serializes the table in (disk, page) order, modelling the
// paper's NVRAM persistence of D_Table across power failure.
func (t *DTable) Snapshot() ([]byte, error) {
	recs := make([]snapshotRecord, 0, len(t.m))
	t.ForEach(func(k PageKey, e Entry) {
		recs = append(recs, snapshotRecord{k, e})
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the table contents from a snapshot. A snapshot naming a
// key outside the table (taken on a wider array) is rejected and leaves the
// table unchanged.
func (t *DTable) Restore(data []byte) error {
	var recs []snapshotRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	for _, r := range recs {
		if !t.holds(r.Key) {
			return fmt.Errorf("core: restore: key (%d,%d) outside %d disks x %d pages",
				r.Key.Disk, r.Key.Page, len(t.has), t.pages)
		}
	}
	t.m = make(map[PageKey]Entry, len(recs))
	for d := range t.has {
		clear(t.has[d])
		clear(t.wr[d])
	}
	for _, r := range recs {
		t.m[r.Key] = r.Entry
		t.has[r.Key.Disk].set(r.Key.Page)
		if r.Entry.Write {
			t.wr[r.Key.Disk].set(r.Key.Page)
		} else {
			t.wr[r.Key.Disk].unset(r.Key.Page)
		}
	}
	t.writeEntries = 0
	for _, b := range t.wr {
		for _, w := range b {
			t.writeEntries += bits.OnesCount64(w)
		}
	}
	return nil
}
