package raid

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

const testPageSize = 64 // small pages keep the byte model fast

func newStore(t *testing.T, l Layout) *Store {
	t.Helper()
	s, err := NewStore(l, testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fillRandom(t *testing.T, s *Store, rng *rand.Rand) []byte {
	t.Helper()
	shadow := make([]byte, s.Layout().LogicalPages()*testPageSize)
	rng.Read(shadow)
	if err := s.Write(0, shadow); err != nil {
		t.Fatal(err)
	}
	return shadow
}

func TestStoreWriteReadRoundTrip(t *testing.T) {
	for _, l := range layouts() {
		s := newStore(t, l)
		rng := rand.New(rand.NewSource(10))
		shadow := fillRandom(t, s, rng)
		got, err := s.Read(0, l.LogicalPages())
		if err != nil {
			t.Fatalf("%v: %v", l.Level, err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("%v: full read mismatch", l.Level)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("%v: %v", l.Level, err)
		}
	}
}

func TestStoreRandomOverwrites(t *testing.T) {
	for _, l := range layouts() {
		s := newStore(t, l)
		rng := rand.New(rand.NewSource(11))
		shadow := fillRandom(t, s, rng)
		for i := 0; i < 200; i++ {
			page := rng.Intn(l.LogicalPages())
			pages := 1 + rng.Intn(min(l.LogicalPages()-page, 3*l.UnitPages))
			buf := make([]byte, pages*testPageSize)
			rng.Read(buf)
			if err := s.Write(page, buf); err != nil {
				t.Fatalf("%v: %v", l.Level, err)
			}
			copy(shadow[page*testPageSize:], buf)
		}
		got, err := s.Read(0, l.LogicalPages())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("%v: mismatch after overwrites", l.Level)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("%v: %v", l.Level, err)
		}
	}
}

func TestDegradedReadsRecoverData(t *testing.T) {
	for _, l := range layouts() {
		for fail := 0; fail < l.Disks; fail++ {
			s := newStore(t, l)
			rng := rand.New(rand.NewSource(int64(12 + fail)))
			shadow := fillRandom(t, s, rng)
			if err := s.FailDisk(fail); err != nil {
				t.Fatal(err)
			}
			got, err := s.Read(0, l.LogicalPages())
			if err != nil {
				t.Fatalf("%v fail=%d: %v", l.Level, fail, err)
			}
			if !bytes.Equal(got, shadow) {
				t.Fatalf("%v fail=%d: degraded read mismatch", l.Level, fail)
			}
		}
	}
}

func TestDegradedWritesThenReconstruct(t *testing.T) {
	for _, l := range layouts() {
		for fail := 0; fail < l.Disks; fail++ {
			s := newStore(t, l)
			rng := rand.New(rand.NewSource(int64(100 + fail)))
			shadow := fillRandom(t, s, rng)
			if err := s.FailDisk(fail); err != nil {
				t.Fatal(err)
			}
			// Degraded writes, including writes whose data unit lives on the
			// failed disk (their content survives only via parity).
			for i := 0; i < 100; i++ {
				page := rng.Intn(l.LogicalPages())
				pages := 1 + rng.Intn(min(l.LogicalPages()-page, 2*l.UnitPages))
				buf := make([]byte, pages*testPageSize)
				rng.Read(buf)
				if err := s.Write(page, buf); err != nil {
					t.Fatalf("%v fail=%d: %v", l.Level, fail, err)
				}
				copy(shadow[page*testPageSize:], buf)
			}
			// Degraded reads see the new data.
			got, err := s.Read(0, l.LogicalPages())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow) {
				t.Fatalf("%v fail=%d: degraded read after degraded writes mismatch", l.Level, fail)
			}
			// Reconstruction restores full redundancy and content.
			if err := s.Reconstruct(); err != nil {
				t.Fatalf("%v fail=%d: %v", l.Level, fail, err)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatalf("%v fail=%d after rebuild: %v", l.Level, fail, err)
			}
			got, err = s.Read(0, l.LogicalPages())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow) {
				t.Fatalf("%v fail=%d: content changed by reconstruction", l.Level, fail)
			}
		}
	}
}

func TestDoubleFailureRejected(t *testing.T) {
	s := newStore(t, layouts()[0])
	s.FailDisk(0)
	if err := s.FailDisk(1); err == nil {
		t.Fatal("second failure accepted")
	}
}

func TestReconstructWithoutFailure(t *testing.T) {
	s := newStore(t, layouts()[0])
	if err := s.Reconstruct(); err == nil {
		t.Fatal("Reconstruct on healthy array should error")
	}
}

func TestWriteValidation(t *testing.T) {
	s := newStore(t, layouts()[0])
	if err := s.Write(0, make([]byte, testPageSize-1)); err == nil {
		t.Fatal("non-page-multiple write accepted")
	}
	if err := s.Write(-1, make([]byte, testPageSize)); err == nil {
		t.Fatal("negative page accepted")
	}
	if err := s.Write(s.Layout().LogicalPages(), make([]byte, testPageSize)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := s.Read(0, 0); err == nil {
		t.Fatal("zero-length read accepted")
	}
}

// Property: for random layouts and op sequences with a failure injected at
// a random point, reads always equal the shadow and reconstruction restores
// parity. This is the master correctness property of the RAID substrate.
func TestQuickStoreFaultRoundTrip(t *testing.T) {
	type spec struct {
		Seed    int64
		Variant uint8
		FailAt  uint8
		Disk    uint8
	}
	ls := layouts()
	f := func(sp spec) bool {
		l := ls[int(sp.Variant)%len(ls)]
		s, err := NewStore(l, testPageSize)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(sp.Seed))
		shadow := make([]byte, l.LogicalPages()*testPageSize)
		rng.Read(shadow)
		if err := s.Write(0, shadow); err != nil {
			t.Fatal(err)
		}
		failAt := int(sp.FailAt) % 60
		failDisk := int(sp.Disk) % l.Disks
		for i := 0; i < 60; i++ {
			if i == failAt {
				if err := s.FailDisk(failDisk); err != nil {
					t.Fatal(err)
				}
			}
			page := rng.Intn(l.LogicalPages())
			pages := 1 + rng.Intn(min(l.LogicalPages()-page, 2*l.UnitPages))
			buf := make([]byte, pages*testPageSize)
			rng.Read(buf)
			if err := s.Write(page, buf); err != nil {
				t.Fatal(err)
			}
			copy(shadow[page*testPageSize:], buf)
		}
		got, err := s.Read(0, l.LogicalPages())
		if err != nil || !bytes.Equal(got, shadow) {
			return false
		}
		if err := s.Reconstruct(); err != nil {
			return false
		}
		if err := s.CheckParity(); err != nil {
			return false
		}
		got, err = s.Read(0, l.LogicalPages())
		return err == nil && bytes.Equal(got, shadow)
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(spec{
				Seed: r.Int63(), Variant: uint8(r.Intn(256)),
				FailAt: uint8(r.Intn(256)), Disk: uint8(r.Intn(256)),
			})
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCorruptValidation(t *testing.T) {
	s := newStore(t, layouts()[0])
	if err := s.Corrupt(-1, 0); err == nil {
		t.Fatal("negative disk accepted")
	}
	if err := s.Corrupt(0, s.Layout().DiskPages); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if err := s.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(1, 0); err == nil {
		t.Fatal("corrupting a failed disk accepted")
	}
}

// TestReadDetectsAndRepairsCorruption: a checksum-verifying read of a
// silently corrupted data page returns the true contents and repairs the
// page in place from redundancy.
func TestReadDetectsAndRepairsCorruption(t *testing.T) {
	for _, l := range layouts() {
		s := newStore(t, l)
		shadow := fillRandom(t, s, rand.New(rand.NewSource(40)))
		// Corrupt the first data page of stripe 1 on its data disk.
		d := l.DataDisk(1, 0)
		p := l.UnitPage(1)
		if err := s.Corrupt(d, p); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(0, l.LogicalPages())
		if err != nil {
			t.Fatalf("%v: %v", l.Level, err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("%v: corrupted read returned wrong bytes", l.Level)
		}
		if s.ReadRepairs() != 1 {
			t.Fatalf("%v: read repairs = %d, want 1", l.Level, s.ReadRepairs())
		}
		// The repair is persistent: a second read is clean.
		if _, err := s.Read(0, l.LogicalPages()); err != nil {
			t.Fatal(err)
		}
		if s.ReadRepairs() != 1 {
			t.Fatalf("%v: repair did not stick (%d repairs)", l.Level, s.ReadRepairs())
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("%v after repair: %v", l.Level, err)
		}
	}
}

// TestScrubPassRepairsDataAndParityCorruption: one patrol pass finds and
// fixes corruption wherever it lands — data units, P, and Q — restoring a
// byte-identical, parity-consistent array.
func TestScrubPassRepairsDataAndParityCorruption(t *testing.T) {
	for _, l := range layouts() {
		s := newStore(t, l)
		shadow := fillRandom(t, s, rand.New(rand.NewSource(41)))
		want := 2
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(s.Corrupt(l.DataDisk(0, 0), 0))
		must(s.Corrupt(l.DataDisk(2, 0), l.UnitPage(2)+1))
		if pd := l.ParityDisk(3); pd >= 0 {
			must(s.Corrupt(pd, l.UnitPage(3)))
			want++
		}
		if qd := l.QDisk(3); qd >= 0 {
			must(s.Corrupt(qd, l.UnitPage(3)+2))
			want++
		}
		repaired, unrec := s.ScrubPass()
		if repaired != want || unrec != 0 {
			t.Fatalf("%v: scrub repaired %d (want %d), unrecoverable %d", l.Level, repaired, want, unrec)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("%v after scrub: %v", l.Level, err)
		}
		got, err := s.Read(0, l.LogicalPages())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("%v: content changed by scrub repair", l.Level)
		}
		if s.ReadRepairs() != 0 {
			t.Fatalf("%v: read after scrub still repaired %d pages", l.Level, s.ReadRepairs())
		}
		// A second pass finds a clean array.
		if r, u := s.ScrubPass(); r != 0 || u != 0 {
			t.Fatalf("%v: second pass repaired %d / unrecoverable %d", l.Level, r, u)
		}
	}
}

// TestCorruptionBeyondRedundancyIsAnError: with one RAID5 member already
// failed, a corrupt page on a survivor has no redundancy left — reads must
// fail loudly and the scrub must count it unrecoverable, never fabricate
// data.
func TestCorruptionBeyondRedundancyIsAnError(t *testing.T) {
	l := layouts()[0] // RAID5
	s := newStore(t, l)
	fillRandom(t, s, rand.New(rand.NewSource(42)))
	if err := s.FailDisk(l.DataDisk(0, 1)); err != nil {
		t.Fatal(err)
	}
	d := l.DataDisk(0, 0)
	if err := s.Corrupt(d, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0, l.UnitPages); err == nil {
		t.Fatal("unrecoverable corruption returned silently")
	}
	if _, unrec := s.ScrubPass(); unrec != 1 {
		t.Fatalf("scrub unrecoverable = %d, want 1", unrec)
	}
	// Reconstruction of the failed disk uses the corrupt survivor and so
	// cannot certify parity; RAID6 would have survived this (next test).
}

// TestRAID6SurvivesCorruptionDuringDegradedRead: RAID6's second parity
// covers a corrupt survivor page even with one member already failed.
func TestRAID6SurvivesCorruptionDuringDegradedRead(t *testing.T) {
	l := layouts()[2] // RAID6
	s := newStore(t, l)
	shadow := fillRandom(t, s, rand.New(rand.NewSource(43)))
	if err := s.FailDisk(l.DataDisk(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(l.DataDisk(0, 0), 0); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(0, l.LogicalPages())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("degraded RAID6 read with corruption returned wrong bytes")
	}
	if s.ReadRepairs() != 1 {
		t.Fatalf("read repairs = %d, want 1", s.ReadRepairs())
	}
}
