package cluster

import (
	"fmt"
	"sort"
	"testing"

	"gcsteering"
	"gcsteering/internal/sim"
)

// TestFnv64AtMatchesSprintf pins the allocation-free fnv64At to the exact
// byte stream the old fmt.Sprintf form hashed. If the two ever diverge,
// every volume extent silently re-places, so this equivalence is what makes
// the hot-path rewrite a pure optimisation.
func TestFnv64AtMatchesSprintf(t *testing.T) {
	keys := []string{"", "t", "tenant-0/0", "tenant-12/7", "a/b/c", "@", "vol@9",
		"tenant-with-a-much-longer-key-than-usual/123456"}
	arrays := []int{0, 1, 2, 9, 10, 99, 100, 1234, 987654321}
	for _, k := range keys {
		for _, a := range arrays {
			want := fnv64(fmt.Sprintf("%s@%d", k, a))
			if got := fnv64At(k, a); got != want {
				t.Fatalf("fnv64At(%q, %d) = %#x, want %#x", k, a, got, want)
			}
		}
	}
}

// TestNewRingMatchesSprintf pins the ring's virtual-node hashes to the
// "array-%d#%d" strings they were first defined over: newRing builds the
// names in a reused byte buffer, and any drift would re-place every volume.
func TestNewRingMatchesSprintf(t *testing.T) {
	for _, c := range []struct{ arrays, vnodes int }{{1, 1}, {2, 3}, {8, 64}, {11, 128}, {3, 1000}} {
		want := make([]ringPoint, 0, c.arrays*c.vnodes)
		for a := 0; a < c.arrays; a++ {
			for v := 0; v < c.vnodes; v++ {
				want = append(want, ringPoint{fnv64(fmt.Sprintf("array-%d#%d", a, v)), a})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].hash != want[j].hash {
				return want[i].hash < want[j].hash
			}
			return want[i].array < want[j].array
		})
		got := newRing(c.arrays, c.vnodes).points
		if len(got) != len(want) {
			t.Fatalf("newRing(%d, %d): %d points, want %d", c.arrays, c.vnodes, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("newRing(%d, %d) point %d = %+v, want %+v", c.arrays, c.vnodes, i, got[i], want[i])
			}
		}
	}
}

// TestSearchGEMatchesSortSearch checks the closure-free ring search against
// sort.Search over every probe position of a dense ring, including the
// below-first and past-last boundaries.
func TestSearchGEMatchesSortSearch(t *testing.T) {
	r := newRing(5, 16)
	probes := []uint64{0, 1, ^uint64(0)}
	for _, p := range r.points {
		probes = append(probes, p.hash-1, p.hash, p.hash+1)
	}
	for _, h := range probes {
		want := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
		if got := r.searchGE(h); got != want {
			t.Fatalf("searchGE(%#x) = %d, want %d", h, got, want)
		}
	}
	empty := &ring{}
	if got := empty.searchGE(42); got != 0 {
		t.Fatalf("searchGE on empty ring = %d, want 0", got)
	}
}

// TestBusyTimelineAt probes every interval edge of a merged timeline and
// checks the hand-rolled binary search against a linear scan.
func TestBusyTimelineAt(t *testing.T) {
	tl := newBusyTimeline([]gcsteering.BusyInterval{
		{Start: 10, End: 20},
		{Start: 15, End: 25}, // overlaps: merges with the first
		{Start: 40, End: 41},
		{Start: 100, End: 200},
	})
	linear := func(at sim.Time) bool {
		for i := range tl.starts {
			if tl.starts[i] <= at && at < tl.ends[i] {
				return true
			}
		}
		return false
	}
	for at := sim.Time(0); at <= 210; at++ {
		if got, want := tl.at(at), linear(at); got != want {
			t.Fatalf("at(%d) = %v, want %v", at, got, want)
		}
	}
	if (busyTimeline{}).at(5) {
		t.Fatal("empty timeline reported busy")
	}
}

// TestRouterPushOrdering inserts events out of order, with at-time ties,
// and from a partially processed queue, and checks push keeps events[next:]
// sorted by (at, seq) — the invariant the closure-free binary search must
// preserve exactly as the sort.Search form did.
func TestRouterPushOrdering(t *testing.T) {
	rt := &router{}
	times := []sim.Time{50, 10, 30, 10, 70, 30, 30, 5, 90, 10}
	for _, at := range times {
		rt.push(domainEvent{at: at})
	}
	assertSorted := func() {
		t.Helper()
		for i := rt.next + 1; i < len(rt.events); i++ {
			a, b := rt.events[i-1], rt.events[i]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				t.Fatalf("events out of order at %d: (%d,%d) before (%d,%d)",
					i, a.at, a.seq, b.at, b.seq)
			}
		}
	}
	assertSorted()
	// Ties must preserve insertion order (seq ascending).
	prev := -1
	for _, e := range rt.events {
		if e.at == 10 {
			if e.seq <= prev {
				t.Fatalf("tied events reordered: seq %d after %d", e.seq, prev)
			}
			prev = e.seq
		}
	}
	// Consume a prefix, then insert into the remaining future.
	rt.next = 4
	rt.push(domainEvent{at: 60})
	rt.push(domainEvent{at: 30}) // before some processed entries' times, still future-relative
	assertSorted()
}
