package raid

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func raid6StoreLayout() Layout {
	return Layout{Level: RAID6, Disks: 6, UnitPages: 16, DiskPages: 256}
}

func TestRAID6DoubleFailureDegradedReads(t *testing.T) {
	l := raid6StoreLayout()
	for a := 0; a < l.Disks; a++ {
		for b := a + 1; b < l.Disks; b++ {
			s := newStore(t, l)
			rng := rand.New(rand.NewSource(int64(a*10 + b)))
			shadow := fillRandom(t, s, rng)
			if err := s.FailDisk(a); err != nil {
				t.Fatal(err)
			}
			if err := s.FailDisk(b); err != nil {
				t.Fatal(err)
			}
			got, err := s.Read(0, l.LogicalPages())
			if err != nil {
				t.Fatalf("fail (%d,%d): %v", a, b, err)
			}
			if !bytes.Equal(got, shadow) {
				t.Fatalf("fail (%d,%d): double-degraded read mismatch", a, b)
			}
		}
	}
}

func TestRAID6DoubleFailureWritesAndReconstruct(t *testing.T) {
	l := raid6StoreLayout()
	for _, pair := range [][2]int{{0, 1}, {2, 5}, {1, 4}} {
		s := newStore(t, l)
		rng := rand.New(rand.NewSource(int64(77 + pair[0])))
		shadow := fillRandom(t, s, rng)
		s.FailDisk(pair[0])
		s.FailDisk(pair[1])
		// Writes while doubly degraded.
		for i := 0; i < 120; i++ {
			page := rng.Intn(l.LogicalPages())
			pages := 1 + rng.Intn(min(l.LogicalPages()-page, 2*l.UnitPages))
			buf := make([]byte, pages*testPageSize)
			rng.Read(buf)
			if err := s.Write(page, buf); err != nil {
				t.Fatalf("fail %v: %v", pair, err)
			}
			copy(shadow[page*testPageSize:], buf)
		}
		got, err := s.Read(0, l.LogicalPages())
		if err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("fail %v: doubly-degraded read after writes wrong (%v)", pair, err)
		}
		// Full two-disk reconstruction.
		if err := s.Reconstruct(); err != nil {
			t.Fatalf("fail %v: %v", pair, err)
		}
		if len(s.Failed()) != 0 {
			t.Fatalf("fail %v: still degraded after reconstruct", pair)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("fail %v: %v", pair, err)
		}
		got, err = s.Read(0, l.LogicalPages())
		if err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("fail %v: content changed by double reconstruction", pair)
		}
	}
}

func TestRAID5RejectsSecondFailure(t *testing.T) {
	s := newStore(t, layouts()[0])
	if err := s.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDisk(1); err == nil {
		t.Fatal("RAID5 accepted a second failure")
	}
	if err := s.FailDisk(0); err == nil {
		t.Fatal("duplicate failure accepted")
	}
}

func TestRAID6RejectsThirdFailure(t *testing.T) {
	s := newStore(t, raid6StoreLayout())
	s.FailDisk(0)
	s.FailDisk(1)
	if err := s.FailDisk(2); err == nil {
		t.Fatal("RAID6 accepted a third failure")
	}
}

// Property: on RAID6, any two failures injected at random points of a
// random write sequence still yield exact reads and an exact two-disk
// reconstruction.
func TestQuickRAID6DoubleFaultRoundTrip(t *testing.T) {
	type spec struct {
		Seed             int64
		FailAt1, FailAt2 uint8
		DiskA, DiskB     uint8
	}
	l := raid6StoreLayout()
	f := func(sp spec) bool {
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
		a := int(sp.DiskA) % l.Disks
		b := int(sp.DiskB) % l.Disks
		if a == b {
			b = (b + 1) % l.Disks
		}
		f1 := int(sp.FailAt1) % 50
		f2 := int(sp.FailAt2) % 50
		for i := 0; i < 50; i++ {
			if i == f1 {
				s.FailDisk(a)
			}
			if i == f2 {
				s.FailDisk(b)
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
		got, err = s.Read(0, l.LogicalPages())
		return err == nil && bytes.Equal(got, shadow) && s.CheckParity() == nil
	}
	cfg := &quick.Config{
		MaxCount: 15,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(spec{
				Seed: r.Int63(), FailAt1: uint8(r.Intn(256)), FailAt2: uint8(r.Intn(256)),
				DiskA: uint8(r.Intn(256)), DiskB: uint8(r.Intn(256)),
			})
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
