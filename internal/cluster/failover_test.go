package cluster

import (
	"testing"

	"gcsteering/internal/sim"
	"gcsteering/internal/trace"
)

// conserve checks the fleet-level request conservation law: every admitted
// request either settled, was rejected by a shard queue, or failed to a
// whole-array crash.
func conserve(t *testing.T, r *ClusterResults) {
	t.Helper()
	if got := int64(r.Latency.Count) + r.Rejected + r.Failed; got != r.Requests {
		t.Fatalf("settled %d + rejected %d + failed %d != admitted %d",
			r.Latency.Count, r.Rejected, r.Failed, r.Requests)
	}
	var perTenant int64
	for _, tn := range r.Tenants {
		perTenant += tn.Requests
	}
	if perTenant != r.Requests {
		t.Fatalf("tenant totals %d != admitted %d", perTenant, r.Requests)
	}
}

func TestReplicationBarrierAndCounters(t *testing.T) {
	c := Config{
		Arrays:          4,
		Policy:          PolicyHash,
		Workers:         2,
		Base:            tinyBase(),
		Tenants:         tinyTenants(6, 150),
		ReplicateWrites: true,
		ReplicaLinkUs:   50,
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, r)
	if r.Replicated == 0 {
		t.Fatal("no writes replicated")
	}
	var replWrites int64
	for _, a := range r.PerArray {
		replWrites += a.ReplWrites
	}
	if replWrites != r.Replicated {
		t.Fatalf("replica legs %d != replicated writes %d", replWrites, r.Replicated)
	}
	if r.Failed != 0 || r.DataLossEvents != 0 {
		t.Fatalf("healthy fleet reported failed=%d dataloss=%d", r.Failed, r.DataLossEvents)
	}
	// No deadline: availability counts exactly the settled requests.
	if r.Available != int64(r.Latency.Count) {
		t.Fatalf("available %d != settled %d", r.Available, r.Latency.Count)
	}
	// The barrier must be visible: some replica leg trailed its primary.
	lagSeen := false
	for _, a := range r.PerArray {
		if a.ReplLagMaxUs > 0 {
			lagSeen = true
		}
	}
	if !lagSeen {
		t.Fatal("no replica lag measured despite a 50µs link")
	}
}

func TestFailoverRestoresRedundancy(t *testing.T) {
	c := Config{
		Arrays:          4,
		Policy:          PolicyHash,
		Workers:         2,
		Base:            tinyBase(),
		Tenants:         tinyTenants(6, 150),
		ReplicateWrites: true,
		ReplicaLinkUs:   20,
		// Crash inside the workload's dense opening burst, so the 2 ms
		// detection gap catches arrivals before the Directory repin.
		ArrayFaults: []ArrayFault{{Array: 2, AtMs: 100}}, // permanent
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, r)
	if len(r.Failures) != 1 {
		t.Fatalf("failures: %v", r.Failures)
	}
	f := r.Failures[0]
	if !f.Permanent || f.Array != 2 {
		t.Fatalf("failure event: %+v", f)
	}
	if f.RepinnedVolumes == 0 {
		t.Fatal("failover repinned no volumes")
	}
	if f.SpareArray < 0 || f.SpareArray == 2 {
		t.Fatalf("spare array %d", f.SpareArray)
	}
	if f.RereplicatedBytes == 0 || f.RereplicationMs <= 0 {
		t.Fatalf("re-replication not measured: %+v", f)
	}
	if f.FailoverMs <= 0 {
		t.Fatalf("failover time not measured: %+v", f)
	}
	if r.Failed == 0 {
		t.Fatal("a permanent crash failed no requests (detection gap should)")
	}
	// The acceptance headline: replication on, one array lost, zero data loss.
	if r.DataLossEvents != 0 {
		t.Fatalf("data loss with replication on: %d events", r.DataLossEvents)
	}
}

func TestPermanentCrashWithoutReplicationLosesData(t *testing.T) {
	c := Config{
		Arrays:      4,
		Policy:      PolicyHash,
		Workers:     2,
		Base:        tinyBase(),
		Tenants:     tinyTenants(6, 150),
		ArrayFaults: []ArrayFault{{Array: 1, AtMs: 2000}},
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, r)
	if r.Failed == 0 {
		t.Fatal("crash failed no requests")
	}
	if r.DataLossEvents == 0 {
		t.Fatal("permanent crash without replication lost no reads")
	}
	if r.Failures[0].DataLossReads == 0 {
		t.Fatalf("failure event missed the lost reads: %+v", r.Failures[0])
	}
	// Without a second copy there is nothing to repin.
	if r.Failures[0].RepinnedVolumes != 0 {
		t.Fatalf("repinned %d volumes without replication", r.Failures[0].RepinnedVolumes)
	}
}

func TestTemporaryCrashRecoversWithoutLoss(t *testing.T) {
	c := Config{
		Arrays:          4,
		Policy:          PolicyHash,
		Workers:         2,
		Base:            tinyBase(),
		Tenants:         tinyTenants(6, 150),
		ReplicateWrites: true,
		ArrayFaults:     []ArrayFault{{Array: 1, AtMs: 2000, DowntimeMs: 500}},
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, r)
	if len(r.Failures) != 1 || r.Failures[0].Permanent {
		t.Fatalf("failures: %v", r.Failures)
	}
	if r.DataLossEvents != 0 {
		t.Fatalf("timed crash with replication lost data: %d", r.DataLossEvents)
	}
	// After recovery the array serves again: it must have taken requests
	// both before the crash and after coming back.
	if r.PerArray[1].Requests == 0 {
		t.Fatal("recovered array served nothing")
	}
}

// TestAvailabilityGapFromReplication pins the headline reliability claim:
// under the same permanent crash, replicated writes + failover keep a
// measurably larger fraction of requests answered.
func TestAvailabilityGapFromReplication(t *testing.T) {
	mk := func(repl bool) Config {
		return Config{
			Arrays:          4,
			Policy:          PolicyHash,
			Workers:         2,
			Base:            tinyBase(),
			Tenants:         tinyTenants(6, 150),
			ReplicateWrites: repl,
			ArrayFaults:     []ArrayFault{{Array: 1, AtMs: 2000}},
		}
	}
	off, err := Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if off.Availability >= 1 {
		t.Fatalf("crash without replication lost no availability: %.4f", off.Availability)
	}
	if on.Availability <= off.Availability {
		t.Fatalf("replication availability %.4f <= unreplicated %.4f",
			on.Availability, off.Availability)
	}
}

// TestDirectoryOverrideReplicaFollowsRing is the regression test for the
// Directory replica rule: a pinned volume's replica must come from the ring
// walk (excluding the pinned primary), not from the numeric neighbor
// (primary+1)%Arrays, which ignores the ring entirely.
func TestDirectoryOverrideReplicaFollowsRing(t *testing.T) {
	const key = "pinned/0"
	mismatchSeen := false
	for pin := 0; pin < 4; pin++ {
		c := Config{
			Arrays:    4,
			Policy:    PolicyHash,
			Base:      tinyBase(),
			Tenants:   []Tenant{{Name: "pinned", Profile: "hm_0", Requests: 10}},
			Directory: map[string]int{key: pin},
		}
		eff, err := c.resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		rt := newRouter(&c, eff, c.Base.Capacity())
		var v *volState
		for _, vs := range rt.vols {
			if vs.key == key {
				v = vs
			}
		}
		if v == nil {
			t.Fatal("volume not built")
		}
		if v.primary != pin {
			t.Fatalf("pin %d: primary %d", pin, v.primary)
		}
		want := rt.ringP.replicaExcluding(key, pin)
		if v.replica != want {
			t.Fatalf("pin %d: replica %d, ring walk wants %d", pin, v.replica, want)
		}
		if v.replica == v.primary {
			t.Fatalf("pin %d: replica co-located with primary", pin)
		}
		if v.replica != (pin+1)%4 {
			mismatchSeen = true
		}
	}
	if !mismatchSeen {
		t.Fatal("ring walk agreed with (primary+1)%Arrays for every pin; regression not exercised")
	}
}

// TestRouterFinishLegsAllocsFlat pins the leg slab: resolving every
// request's legs allocates per sweep, not per request, so finish costs the
// same number of allocations at 10 requests as at 5000. It also checks the
// slab keeps each request's legs in (array, seq) order and pointing back at
// the request.
func TestRouterFinishLegsAllocsFlat(t *testing.T) {
	const arrays = 3
	build := func(reqs int) *router {
		rt := &router{recs: make([][]shardRec, arrays), routes: make([]reqRoute, reqs)}
		for i := 0; i < reqs; i++ {
			at := sim.Time(i) * 10
			// A serving leg, a replica leg that lands on the next array
			// later, and every fourth request a background copy leg.
			a := i % arrays
			rt.recs[a] = append(rt.recs[a], shardRec{rec: trace.Record{Timestamp: at},
				meta: reqMeta{rid: int64(i), role: rolePrimary}})
			b := (i + 1) % arrays
			rt.recs[b] = append(rt.recs[b], shardRec{rec: trace.Record{Timestamp: at + 25},
				meta: reqMeta{rid: int64(i), role: roleReplica, linkNs: 25}})
			if i%4 == 0 {
				rt.recs[a] = append(rt.recs[a], shardRec{rec: trace.Record{Timestamp: at + 3},
					meta: reqMeta{rid: -1}})
			}
		}
		return rt
	}
	allocs := func(reqs int) float64 {
		rt := build(reqs)
		n := testing.AllocsPerRun(5, func() {
			for i := range rt.routes {
				rt.routes[i].legs = nil
			}
			rt.finish()
		})
		for i, r := range rt.routes {
			if len(r.legs) != 2 {
				t.Fatalf("%d requests: route %d has %d legs, want 2", reqs, i, len(r.legs))
			}
			for k, l := range r.legs {
				if k > 0 && (l.array < r.legs[k-1].array ||
					l.array == r.legs[k-1].array && l.seq <= r.legs[k-1].seq) {
					t.Fatalf("%d requests: route %d legs out of (array, seq) order: %+v", reqs, i, r.legs)
				}
				if got := rt.recs[l.array][l.seq].meta.rid; got != int64(i) {
					t.Fatalf("%d requests: route %d leg %+v resolves to rid %d", reqs, i, l, got)
				}
			}
		}
		return n
	}
	small, large := allocs(10), allocs(5000)
	if large > small {
		t.Fatalf("finish allocates %v times at 5000 requests, %v at 10: legs allocate per request", large, small)
	}
}
