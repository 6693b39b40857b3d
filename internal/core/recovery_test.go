package core

import (
	"testing"

	"gcsteering/internal/sim"
)

// TestCrashRecoveryRoundTrip models the paper's §III-E power-failure story:
// the D_Table snapshot taken "in NVRAM" is restored into a fresh steering
// controller over the same array, after which staged pages are still served
// from the staging space and the staged slots are not reallocated.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.RunFor(sim.Millisecond)
	key := PageKey{Disk: int32(homeDisk), Page: int32(homePage)}
	orig, ok := r.st.DTable().Get(key)
	if !ok {
		t.Fatal("precondition: staged entry missing")
	}
	blob, err := r.st.SnapshotDTable()
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": build a fresh controller over the same devices and array
	// (the flash contents survive a power failure; the controller state
	// does not).
	fresh, err := New(r.eng, r.arr, r.st.Staging(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The staging slot is still held by the old controller's accounting;
	// free it to model the fresh pools a restarted controller starts from,
	// then restore, which must re-reserve it.
	r.st.Staging().Free(orig.Loc)
	if err := fresh.RestoreDTable(blob); err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.DTable().Get(key)
	if !ok || got.Loc != orig.Loc || !got.Write {
		t.Fatalf("restored entry %+v ok=%v, want %+v", got, ok, orig)
	}
	// The restored slots must be reserved: allocating until exhaustion must
	// never hand out the restored location.
	for {
		loc, ok := fresh.Staging().AllocWrite(r.eng.Now(), -1, false)
		if !ok {
			break
		}
		if loc.Dev0 == orig.Loc.Dev0 && loc.Page0 == orig.Loc.Page0 {
			t.Fatal("restored slot handed out again")
		}
		if loc.Mirrored() && loc.Dev1 == orig.Loc.Dev1 && loc.Page1 == orig.Loc.Page1 {
			t.Fatal("restored mirror slot handed out again")
		}
	}
	// Reads through the recovered controller still dodge the home page.
	before := r.recs[homeDisk].reads[homePage]
	r.arr.Read(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if r.recs[homeDisk].reads[homePage] != before {
		t.Fatal("read after recovery bypassed the staged copy")
	}
}

func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	// Craft a snapshot naming a slot that is currently allocated elsewhere.
	loc, ok := r.st.Staging().AllocWrite(r.eng.Now(), -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	dt := NewDTable(len(r.devs), r.lay.DiskPages)
	dt.Put(PageKey{Disk: 0, Page: 1}, loc, true)
	blob, err := dt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.st.RestoreDTable(blob); err == nil {
		t.Fatal("restore over an allocated slot accepted")
	}
	if err := r.st.RestoreDTable([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestRestoreRejectsWiderArraySnapshot restores a snapshot taken on an
// array with one more member and longer members: the restore must fail
// with an error, not panic, and keep the current table.
func TestRestoreRejectsWiderArraySnapshot(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	for _, key := range []PageKey{
		{Disk: int32(len(r.devs)), Page: 0},
		{Disk: 0, Page: int32(r.lay.DiskPages)},
	} {
		wide := NewDTable(len(r.devs)+1, r.lay.DiskPages+r.lay.UnitPages)
		wide.Put(key, StageLoc{Dev0: NoMirror, Dev1: NoMirror}, true)
		blob, err := wide.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		before := r.st.DTable()
		if err := r.st.RestoreDTable(blob); err == nil {
			t.Fatalf("snapshot with key %+v restored onto a %d x %d array", key, len(r.devs), r.lay.DiskPages)
		}
		if r.st.DTable() != before {
			t.Fatal("failed restore replaced the table")
		}
	}
}

func TestReserveErrors(t *testing.T) {
	_, _, rs := reservedFixture(t, 3)
	loc, ok := rs.AllocWrite(0, -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	if err := rs.Reserve(loc); err == nil {
		t.Fatal("reserving an allocated slot succeeded")
	}
	rs.Free(loc)
	if err := rs.Reserve(loc); err != nil {
		t.Fatalf("reserving a free slot failed: %v", err)
	}
}
