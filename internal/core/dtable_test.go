package core

import (
	"math/rand"
	"sort"
	"testing"
)

func k(d, p int32) PageKey { return PageKey{Disk: d, Page: p} }

// Test tables span 4 disks of 256 pages unless a test needs otherwise.
const testDisks, testPages = 4, 256

// writeRunsFor returns the write entries homed on disk, merged into
// contiguous runs sorted by page (with merge=false every page is its own
// run). It reads only the entry map, so it is the oracle for the
// bitmap-driven FirstWriteRunFor.
func writeRunsFor(t *DTable, disk int32, merge bool) []Run {
	var pages []int32
	for k, e := range t.m {
		if k.Disk == disk && e.Write {
			pages = append(pages, k.Page)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var runs []Run
	for _, p := range pages {
		if merge {
			if n := len(runs); n > 0 && runs[n-1].Page+runs[n-1].Pages == p {
				runs[n-1].Pages++
				continue
			}
		}
		runs = append(runs, Run{Disk: disk, Page: p, Pages: 1})
	}
	return runs
}

func TestDTableBasics(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	if dt.Len() != 0 || dt.WriteLen() != 0 {
		t.Fatal("fresh table not empty")
	}
	if _, ok := dt.Get(k(0, 0)); ok {
		t.Fatal("phantom entry")
	}
	loc := StageLoc{Dev0: 1, Page0: 100, Dev1: NoMirror}
	e := dt.Put(k(0, 5), loc, true)
	if e.Gen != 1 {
		t.Fatalf("first Gen = %d", e.Gen)
	}
	got, ok := dt.Get(k(0, 5))
	if !ok || got.Loc != loc || !got.Write {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	if dt.Len() != 1 || dt.WriteLen() != 1 {
		t.Fatalf("Len=%d WriteLen=%d", dt.Len(), dt.WriteLen())
	}
}

func TestDTableGenBumpsOnReplace(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(0, 5), StageLoc{Dev0: 1, Page0: 1, Dev1: NoMirror}, false)
	e := dt.Put(k(0, 5), StageLoc{Dev0: 2, Page0: 2, Dev1: NoMirror}, true)
	if e.Gen != 2 {
		t.Fatalf("Gen = %d after replace", e.Gen)
	}
	if dt.Len() != 1 || dt.WriteLen() != 1 {
		t.Fatalf("Len=%d WriteLen=%d", dt.Len(), dt.WriteLen())
	}
	// Flag transitions must keep WriteLen consistent.
	dt.Put(k(0, 5), StageLoc{Dev0: 3, Page0: 3, Dev1: NoMirror}, false)
	if dt.WriteLen() != 0 {
		t.Fatalf("WriteLen = %d after write->read transition", dt.WriteLen())
	}
}

func TestDTableDelete(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(1, 2), StageLoc{Dev1: NoMirror}, true)
	dt.Delete(k(1, 2))
	if dt.Len() != 0 || dt.WriteLen() != 0 {
		t.Fatal("delete did not clear")
	}
	dt.Delete(k(1, 2)) // absent delete is a no-op
}

func TestWriteRunsMerging(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	loc := StageLoc{Dev1: NoMirror}
	// Disk 0: pages 10,11,12 and 20. Disk 1: page 5. A read entry at 13
	// must not extend the run.
	for _, p := range []int32{12, 10, 11, 20} {
		dt.Put(k(0, p), loc, true)
	}
	dt.Put(k(0, 13), loc, false)
	dt.Put(k(1, 5), loc, true)

	runs := writeRunsFor(dt, 0, true)
	if len(runs) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].Page != 10 || runs[0].Pages != 3 {
		t.Fatalf("first run %+v", runs[0])
	}
	if runs[1].Page != 20 || runs[1].Pages != 1 {
		t.Fatalf("second run %+v", runs[1])
	}

	unmerged := writeRunsFor(dt, 0, false)
	if len(unmerged) != 4 {
		t.Fatalf("unmerged runs = %+v", unmerged)
	}
	if got := writeRunsFor(dt, 2, true); got != nil {
		t.Fatalf("runs for untouched disk: %+v", got)
	}
	if run, ok := dt.FirstWriteRunFor(0, true); !ok || run != runs[0] {
		t.Fatalf("FirstWriteRunFor(0, merge) = %+v %v, want %+v", run, ok, runs[0])
	}
	if run, ok := dt.FirstWriteRunFor(0, false); !ok || run != unmerged[0] {
		t.Fatalf("FirstWriteRunFor(0) = %+v %v, want %+v", run, ok, unmerged[0])
	}
	if run, ok := dt.FirstWriteRunFor(2, true); ok {
		t.Fatalf("FirstWriteRunFor(untouched disk) = %+v", run)
	}
}

// TestWriteRunEndsAtLastPage checks that a merged run reaching the last
// page of a disk stops there.
func TestWriteRunEndsAtLastPage(t *testing.T) {
	dt := NewDTable(2, 100)
	for p := int32(97); p < 100; p++ {
		dt.Put(k(0, p), StageLoc{Dev1: NoMirror}, true)
	}
	dt.Put(k(1, 0), StageLoc{Dev1: NoMirror}, true)
	want := Run{Disk: 0, Page: 97, Pages: 3}
	if run, ok := dt.FirstWriteRunFor(0, true); !ok || run != want {
		t.Fatalf("FirstWriteRunFor = %+v %v, want %+v", run, ok, want)
	}
}

// checkIndex fails t unless dt's bitmaps and write count match its map.
func checkIndex(t *testing.T, dt *DTable) {
	t.Helper()
	writes := 0
	for d := range dt.has {
		for p := int32(0); p < int32(dt.pages); p++ {
			e, inMap := dt.m[k(int32(d), p)]
			if dt.has[d].has(p) != inMap || dt.wr[d].has(p) != (inMap && e.Write) {
				t.Fatalf("page (%d,%d): has=%v wr=%v, map entry %+v present=%v",
					d, p, dt.has[d].has(p), dt.wr[d].has(p), e, inMap)
			}
			if inMap && e.Write {
				writes++
			}
		}
	}
	if len(dt.m) != dt.Len() || writes != dt.WriteLen() {
		t.Fatalf("Len=%d WriteLen=%d, map holds %d entries, %d writes",
			dt.Len(), dt.WriteLen(), len(dt.m), writes)
	}
}

// TestDTableIndexMatchesOracle drives random Put/Delete/Restore sequences
// over a small table (dense enough for long runs) and checks after every
// step that the bitmaps mirror the map and that FirstWriteRunFor returns
// the oracle's first run for every disk, merged and unmerged.
func TestDTableIndexMatchesOracle(t *testing.T) {
	const disks, pages = 3, 200
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dt := NewDTable(disks, pages)
		var snaps [][]byte
		for step := 0; step < 400; step++ {
			key := k(int32(rng.Intn(disks)), int32(rng.Intn(pages)))
			switch r := rng.Intn(20); {
			case r < 11:
				dt.Put(key, StageLoc{Dev0: int32(step), Dev1: NoMirror}, rng.Intn(3) > 0)
			case r < 18:
				dt.Delete(key)
			case r < 19:
				blob, err := dt.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, blob)
			default:
				if len(snaps) == 0 {
					continue
				}
				if err := dt.Restore(snaps[rng.Intn(len(snaps))]); err != nil {
					t.Fatal(err)
				}
			}
			checkIndex(t, dt)
			for d := int32(0); d < disks; d++ {
				for _, merge := range []bool{false, true} {
					runs := writeRunsFor(dt, d, merge)
					run, ok := dt.FirstWriteRunFor(d, merge)
					if ok != (len(runs) > 0) || (ok && run != runs[0]) {
						t.Fatalf("seed %d step %d disk %d merge=%v: FirstWriteRunFor = %+v %v, oracle %+v",
							seed, step, d, merge, run, ok, runs)
					}
				}
			}
		}
	}
}

func TestDTablePutOutOfRangePanics(t *testing.T) {
	for _, key := range []PageKey{k(-1, 0), k(testDisks, 0), k(0, -1), k(0, testPages)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%+v) did not panic", key)
				}
			}()
			NewDTable(testDisks, testPages).Put(key, StageLoc{Dev1: NoMirror}, true)
		}()
	}
}

// TestRestoreRejectsWiderSnapshot restores snapshots taken on a table with
// more disks or more pages: each must fail and leave the table unchanged.
func TestRestoreRejectsWiderSnapshot(t *testing.T) {
	for _, key := range []PageKey{k(testDisks, 0), k(0, testPages)} {
		wide := NewDTable(testDisks+1, testPages+64)
		wide.Put(k(0, 0), StageLoc{Dev1: NoMirror}, true)
		wide.Put(key, StageLoc{Dev1: NoMirror}, true)
		blob, err := wide.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		dt := NewDTable(testDisks, testPages)
		dt.Put(k(1, 1), StageLoc{Dev1: NoMirror}, false)
		if err := dt.Restore(blob); err == nil {
			t.Fatalf("snapshot with key %+v restored into %dx%d table", key, testDisks, testPages)
		}
		if _, ok := dt.Get(k(1, 1)); !ok || dt.Len() != 1 || dt.WriteLen() != 0 {
			t.Fatalf("failed restore changed the table: Len=%d WriteLen=%d", dt.Len(), dt.WriteLen())
		}
		checkIndex(t, dt)
	}
}

func TestSnapshotRestore(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(0, 1), StageLoc{Dev0: 1, Page0: 11, Dev1: 2, Page1: 22}, true)
	dt.Put(k(3, 4), StageLoc{Dev0: 0, Page0: 7, Dev1: NoMirror}, false)
	blob, err := dt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDTable(testDisks, testPages)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 || restored.WriteLen() != 1 {
		t.Fatalf("restored Len=%d WriteLen=%d", restored.Len(), restored.WriteLen())
	}
	e, ok := restored.Get(k(0, 1))
	if !ok || !e.Loc.Mirrored() || e.Loc.Page1 != 22 || !e.Write {
		t.Fatalf("restored entry %+v ok=%v", e, ok)
	}
	if err := restored.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestForEachVisitsAll checks that ForEach visits every entry once, in
// (disk, page) order, whatever the insertion order.
func TestForEachVisitsAll(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	want := []PageKey{k(0, 1), k(0, 2), k(0, 64), k(1, 0), k(3, testPages-1)}
	for i := len(want) - 1; i >= 0; i-- {
		dt.Put(want[i], StageLoc{Dev1: NoMirror}, i%2 == 0)
	}
	var got []PageKey
	dt.ForEach(func(k PageKey, e Entry) {
		if e.Gen != 1 {
			t.Fatalf("visited %+v with entry %+v", k, e)
		}
		got = append(got, k)
	})
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
}

// TestForEachSkipsDeleted deletes entries during a visit: the visited one
// and one not yet visited, which must then be skipped.
func TestForEachSkipsDeleted(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	for _, p := range []int32{1, 2, 3} {
		dt.Put(k(0, p), StageLoc{Dev1: NoMirror}, true)
	}
	var got []int32
	dt.ForEach(func(k PageKey, _ Entry) {
		got = append(got, k.Page)
		dt.Delete(k)
		if k.Page == 1 {
			dt.Delete(PageKey{Disk: 0, Page: 2})
		}
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 || dt.Len() != 0 {
		t.Fatalf("visited %v, %d entries left", got, dt.Len())
	}
}

func TestStageLocMirrored(t *testing.T) {
	if (StageLoc{Dev1: NoMirror}).Mirrored() {
		t.Fatal("single-copy loc reported mirrored")
	}
	if !(StageLoc{Dev1: 3}).Mirrored() {
		t.Fatal("mirrored loc not reported")
	}
}

func TestRLRU(t *testing.T) {
	r := NewRLRU(3, testPages)
	if r.Cap() != 3 {
		t.Fatal("cap")
	}
	if r.Touch(1) != 0 {
		t.Fatal("first touch reported prior hits")
	}
	if r.Touch(1) != 1 {
		t.Fatal("second touch should report one prior hit")
	}
	if r.Touch(1) != 2 {
		t.Fatal("third touch should report two prior hits")
	}
	r.Touch(2)
	r.Touch(3)
	r.Touch(4) // evicts 1 (2 is next-oldest after 1's promotion... order: 1 promoted, then 2,3,4 -> evict 1)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Contains(1) {
		t.Fatal("oldest entry not evicted")
	}
	if !r.Contains(4) || !r.Contains(3) || !r.Contains(2) {
		t.Fatal("recent entries missing")
	}
	r.Remove(3)
	if r.Contains(3) || r.Len() != 2 {
		t.Fatal("Remove failed")
	}
	r.Remove(3) // absent remove is a no-op
}

func TestRLRUEvictionOrder(t *testing.T) {
	r := NewRLRU(2, testPages)
	r.Touch(1)
	r.Touch(2)
	r.Touch(1) // promote 1; 2 becomes LRU
	r.Touch(3) // evicts 2
	if r.Contains(2) || !r.Contains(1) || !r.Contains(3) {
		t.Fatal("LRU order broken")
	}
}

func TestRLRUMinCapacity(t *testing.T) {
	r := NewRLRU(0, testPages)
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want clamped to 1", r.Cap())
	}
}

// TestRLRUMatchesReference drives random Touch/Remove traffic through a
// small list and checks it against a recency-ordered reference slice after
// every step: same membership (Contains is the page bitmap), same hit
// counts, Len within Cap, and the bitmap mirroring the position map.
func TestRLRUMatchesReference(t *testing.T) {
	const pages = 96
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		r := NewRLRU(capacity, pages)
		type ref struct{ page, hits int32 }
		var list []ref // most recent first
		find := func(p int32) int {
			for i, e := range list {
				if e.page == p {
					return i
				}
			}
			return -1
		}
		for step := 0; step < 600; step++ {
			p := int32(rng.Intn(pages))
			if rng.Intn(4) == 0 {
				r.Remove(p)
				if i := find(p); i >= 0 {
					list = append(list[:i], list[i+1:]...)
				}
			} else {
				want := 0
				e := ref{page: p}
				if i := find(p); i >= 0 {
					e = list[i]
					e.hits++
					want = int(e.hits)
					list = append(list[:i], list[i+1:]...)
				}
				list = append([]ref{e}, list...)
				if len(list) > capacity {
					list = list[:capacity]
				}
				if got := r.Touch(p); got != want {
					t.Fatalf("seed %d step %d: Touch(%d) = %d, want %d", seed, step, p, got, want)
				}
			}
			if r.Len() != len(list) || r.Len() > r.Cap() {
				t.Fatalf("seed %d step %d: Len = %d, Cap = %d, reference holds %d",
					seed, step, r.Len(), r.Cap(), len(list))
			}
			for q := int32(0); q < pages; q++ {
				_, inPos := r.pos[q]
				if r.Contains(q) != (find(q) >= 0) || r.Contains(q) != inPos {
					t.Fatalf("seed %d step %d: Contains(%d) = %v, reference %v, pos %v",
						seed, step, q, r.Contains(q), find(q) >= 0, inPos)
				}
			}
		}
	}
}

// benchTable returns a table holding n write entries in runs of 4 pages
// on disk 0 of the default array's geometry: 5 members of 23552 pages.
func benchTable(n int) *DTable {
	dt := NewDTable(5, 23552)
	for i := 0; i < n; i++ {
		dt.Put(k(0, int32(i/4*16+i%4)), StageLoc{Dev0: 1, Page0: int32(i), Dev1: NoMirror}, true)
	}
	return dt
}

func BenchmarkDTableGetMiss(b *testing.B) {
	dt := benchTable(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := dt.Get(k(1, int32(i%23552))); ok {
			b.Fatal("hit on an empty disk")
		}
	}
}

// BenchmarkFirstWriteRunFor measures one reclaimer step: find the lowest
// merged run, then delete it, so every iteration searches a fresh head.
func BenchmarkFirstWriteRunFor(b *testing.B) {
	dt := benchTable(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, ok := dt.FirstWriteRunFor(0, true)
		if !ok {
			b.StopTimer()
			dt = benchTable(4096)
			b.StartTimer()
			continue
		}
		for p := run.Page; p < run.Page+run.Pages; p++ {
			dt.Delete(k(0, p))
		}
	}
}

func BenchmarkRLRURemoveMiss(b *testing.B) {
	r := NewRLRU(2355, 23552)
	for p := int32(0); p < 2355; p++ {
		r.Touch(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Remove(int32(2355 + i%(23552-2355)))
	}
}
