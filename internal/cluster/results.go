package cluster

import (
	"fmt"
	"strings"

	"gcsteering"
	"gcsteering/internal/metrics"
	"gcsteering/internal/sim"
)

// TenantResults is one tenant's aggregated view of the run.
type TenantResults struct {
	Name string
	QoS  QoS
	// Requests counts admitted requests; Shed the admission-budget drops;
	// Rejected the shard-level queue-limit rejections; Redirects the reads
	// diverted to the replica copy; Failed the requests lost to whole-array
	// crashes (routed to a down array, or in flight when it went down).
	Requests  int64
	Shed      int64
	Rejected  int64
	Redirects int64
	Failed    int64
	// Latency summarizes the tenant's settled response times (ns);
	// ReadLatency the read subset — the side cluster steering acts on
	// (writes always go to the primary copy).
	Latency     gcsteering.LatencySummary
	ReadLatency gcsteering.LatencySummary
}

// ArrayResults is one array's aggregated view of the run.
type ArrayResults struct {
	// Requests counts requests served by this array (serving legs only);
	// Received the reads that landed here by redirection; Diverted the
	// reads steered away from this array to their replica; Failed the
	// requests this array's crash took down.
	Requests int64
	Received int64
	Diverted int64
	Failed   int64
	// ReplWrites counts synchronous replica-barrier writes landing here;
	// CopyWrites the background stream (mirror + copy-job) writes.
	ReplWrites int64
	CopyWrites int64
	// ReplLagMeanUs / ReplLagMaxUs summarize how far this array's replica
	// legs trailed their primary (client-visible barrier stretch, µs).
	ReplLagMeanUs float64
	ReplLagMaxUs  float64
	// GCEpisodes and BusyWindows describe why the router avoided the
	// array; WOV is its window-of-vulnerability time (fault runs).
	GCEpisodes  int64
	BusyWindows int
	WOV         gcsteering.Time
	// Latency summarizes the array's served response times (ns).
	Latency gcsteering.LatencySummary
}

// FailureEvent describes one whole-array crash and its recovery arc.
type FailureEvent struct {
	// Array is the crashed array; Permanent whether it never recovered.
	Array     int
	Permanent bool
	// DownAtMs is the crash instant; FailoverMs the detection gap before
	// the Directory repinned; DowntimeMs the outage length (0 = forever).
	DownAtMs   float64
	FailoverMs float64
	DowntimeMs float64
	// RepinnedVolumes counts volumes failed over onto their replicas;
	// SpareArray the re-replication target of a permanent crash (-1: none).
	RepinnedVolumes int
	SpareArray      int
	// FailedRequests counts requests this crash took down (routed to the
	// down array, or in flight at the instant it died); DataLossReads the
	// subset whose data had no surviving live copy.
	FailedRequests int64
	DataLossReads  int64
	// RereplicatedBytes and RereplicationMs describe the background copy
	// work that restored redundancy (longest job, start to drain).
	RereplicatedBytes int64
	RereplicationMs   float64
}

// ClusterResults aggregates one fleet run.
type ClusterResults struct {
	Arrays int
	Policy Policy
	// Requests counts admitted requests; Shed/Rejected/Redirects/Failed the
	// cluster-wide totals of the per-tenant counters.
	Requests  int64
	Shed      int64
	Rejected  int64
	Redirects int64
	Failed    int64
	// Replicated counts synchronous replica writes issued; ReplicaDrops the
	// replica legs that did not settle (rejected at the replica, or in
	// flight when the replica array crashed) — each one is a window where
	// the copies diverged until a re-replication pass closed it.
	Replicated   int64
	ReplicaDrops int64
	// DataLossEvents counts reads whose data had no surviving live copy —
	// zero whenever ReplicateWrites is on and at most one array is lost.
	DataLossEvents int64
	// Available counts settled requests; Availability is
	// Available/Requests — the fraction of requests answered at all, which
	// isolates crash losses from the latency cost of the doubled write
	// load. Failed and rejected requests are never available.
	Available    int64
	Availability float64
	// WOV sums window-of-vulnerability time across arrays.
	WOV gcsteering.Time
	// Latency and ReadLatency summarize all settled requests fleet-wide,
	// measured at the client: a replicated write settles when its barrier
	// does (slowest of primary and replica + 2× link latency).
	Latency     gcsteering.LatencySummary
	ReadLatency gcsteering.LatencySummary
	// Tenants and PerArray are indexed by tenant / array order.
	Tenants  []TenantResults
	PerArray []ArrayResults
	// Failures reports the run's whole-array crashes in schedule order.
	Failures []FailureEvent
	// Baseline is, under PolicySteering, the hash-only run of the same
	// Config: the profile pass that yields the busy windows routes without
	// diversion over the same admitted stream, plans and seeds, so it is
	// aggregated here instead of being replayed a second time. Its own
	// Baseline is nil, as is Baseline under PolicyHash. A Config.Trace
	// covers the GC-aware pass only, and String leaves Baseline out.
	Baseline *ClusterResults
}

// WorstTenantP99 returns the highest per-tenant P99 (ns) — the fleet's
// fairness headline: steering should pull the unluckiest tenant in, not
// just the mean.
func (r *ClusterResults) WorstTenantP99() int64 {
	var worst int64
	for _, t := range r.Tenants {
		if t.Latency.P99 > worst {
			worst = t.Latency.P99
		}
	}
	return worst
}

// WorstTenantReadP99 is the read-side analogue of WorstTenantP99 — the
// metric routing can actually move, since writes never divert.
func (r *ClusterResults) WorstTenantReadP99() int64 {
	var worst int64
	for _, t := range r.Tenants {
		if t.ReadLatency.P99 > worst {
			worst = t.ReadLatency.P99
		}
	}
	return worst
}

// String renders the deterministic report (slices in index order; no map
// iteration).
func (r *ClusterResults) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d arrays, policy=%s\n", r.Arrays, r.Policy)
	fmt.Fprintf(&b, "  requests=%d shed=%d rejected=%d redirects=%d wov=%.1fms\n",
		r.Requests, r.Shed, r.Rejected, r.Redirects, float64(r.WOV)/1e6)
	if r.Replicated > 0 || r.Failed > 0 || r.DataLossEvents > 0 {
		fmt.Fprintf(&b, "  replicated=%d drops=%d failed=%d dataloss=%d availability=%.4f\n",
			r.Replicated, r.ReplicaDrops, r.Failed, r.DataLossEvents, r.Availability)
	}
	fmt.Fprintf(&b, "  latency: %v\n", r.Latency)
	fmt.Fprintf(&b, "  reads:   %v\n", r.ReadLatency)
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  tenant %-12s %-6s req=%-6d shed=%-5d rej=%-4d redir=%-5d p50=%.1fµs p99=%.1fµs\n",
			t.Name, t.QoS, t.Requests, t.Shed, t.Rejected, t.Redirects,
			float64(t.Latency.P50)/1e3, float64(t.Latency.P99)/1e3)
	}
	for a, ar := range r.PerArray {
		fmt.Fprintf(&b, "  array %-2d req=%-6d recv=%-5d divert=%-5d gc=%-4d busy=%-4d p50=%.1fµs p99=%.1fµs\n",
			a, ar.Requests, ar.Received, ar.Diverted, ar.GCEpisodes, ar.BusyWindows,
			float64(ar.Latency.P50)/1e3, float64(ar.Latency.P99)/1e3)
	}
	for _, f := range r.Failures {
		kind := "timed"
		if f.Permanent {
			kind = "permanent"
		}
		fmt.Fprintf(&b, "  failure array=%d %s at=%.1fms failover=%.1fms repinned=%d spare=%d failed=%d loss=%d rerepl=%.1fMB/%.1fms\n",
			f.Array, kind, f.DownAtMs, f.FailoverMs, f.RepinnedVolumes, f.SpareArray,
			f.FailedRequests, f.DataLossReads,
			float64(f.RereplicatedBytes)/1e6, f.RereplicationMs)
	}
	return b.String()
}

// aggregate joins the router's per-request leg records with the shards'
// per-sequence latencies, strictly in admitted order, then layers the
// per-array engine results on top. Everything runs after the worker pool
// has drained, so the merge order is a pure function of the inputs.
func (c Config) aggregate(admitted []placedReq, shed []int64, rt *router, results []*gcsteering.Results, stats []*shardStats) *ClusterResults {
	out := &ClusterResults{
		Arrays:     c.Arrays,
		Policy:     c.Policy,
		Requests:   int64(len(admitted)),
		Replicated: rt.replicated,
		Tenants:    make([]TenantResults, len(c.Tenants)),
		PerArray:   make([]ArrayResults, c.Arrays),
		Failures:   append([]FailureEvent(nil), rt.faults...),
	}
	for ti, t := range c.Tenants {
		out.Tenants[ti].Name = t.Name
		out.Tenants[ti].QoS = t.QoS
		out.Tenants[ti].Shed = shed[ti]
		out.Shed += shed[ti]
	}

	// latAt reads one leg's settled latency: >= 0 settled, -1 rejected,
	// -2 never observed (treated as rejected).
	latAt := func(l legRef) int64 {
		st := stats[l.array]
		if st == nil || l.seq >= len(st.lat) {
			return -2
		}
		return st.lat[l.seq]
	}
	// legStart reads a leg's submit instant from the sorted shard stream.
	legStart := func(l legRef) sim.Time {
		return rt.recs[l.array][l.seq].rec.Timestamp
	}
	// inFlightAtCrash reports whether the leg was open when its array went
	// down: submitted before the crash, settled (by the crash-blind shard
	// engine) after it.
	inFlightAtCrash := func(l legRef, lat int64) bool {
		downAt := rt.downAt[l.array]
		if downAt == noCrash || lat < 0 {
			return false
		}
		start := legStart(l)
		return start < downAt && start+sim.Time(lat) > downAt
	}

	var lat, readLat metrics.Hist
	tenantLat := make([]metrics.Hist, len(c.Tenants))
	tenantRead := make([]metrics.Hist, len(c.Tenants))
	arrayLat := make([]metrics.Hist, c.Arrays)
	lagSum := make([]float64, c.Arrays)
	lagCount := make([]int64, c.Arrays)
	lagMax := make([]float64, c.Arrays)

	for i := range admitted {
		r := &rt.routes[i]
		tn := &out.Tenants[r.tenant]
		tn.Requests++
		if r.failed {
			// Routed while the serving array was down: counted (and traced)
			// by the router itself.
			tn.Failed++
			out.Failed++
			out.PerArray[r.failArray].Failed++
			if r.dataLoss {
				out.DataLossEvents++
			}
			continue
		}
		var serving legRef
		hasServing := false
		for _, l := range r.legs {
			if l.role == rolePrimary {
				serving = l
				hasServing = true
				break
			}
		}
		if !hasServing {
			continue // cannot happen: every non-failed request has a serving leg
		}
		out.PerArray[serving.array].Requests++
		if r.redirect {
			tn.Redirects++
			out.Redirects++
			out.PerArray[serving.array].Received++
		}
		servingLat := latAt(serving)
		if servingLat < 0 {
			tn.Rejected++
			out.Rejected++
			continue
		}
		if inFlightAtCrash(serving, servingLat) {
			// The array died with this request open: the client never saw a
			// completion, whatever the crash-blind shard engine measured.
			tn.Failed++
			out.Failed++
			out.PerArray[serving.array].Failed++
			if fi := rt.faultIdx[serving.array]; fi >= 0 {
				out.Failures[fi].FailedRequests++
				perm := rt.eff.faults[fi].permanent()
				if !r.write && perm && !r.altLive && !r.redirect {
					r.dataLoss = true
					out.Failures[fi].DataLossReads++
					out.DataLossEvents++
				}
			}
			continue
		}
		// Settled. A replicated write completes at its barrier: the slowest
		// of the serving leg and each replica leg's round trip (leg latency
		// plus the link both ways). A replica leg that did not settle drops
		// out of the barrier and is re-replicated later.
		final := servingLat
		for _, l := range r.legs {
			if l.role != roleReplica {
				continue
			}
			rlat := latAt(l)
			if rlat < 0 || inFlightAtCrash(l, rlat) {
				out.ReplicaDrops++
				continue
			}
			eff := rlat + 2*l.linkNs
			if eff > final {
				final = eff
			}
			if lag := float64(eff - servingLat); lag > 0 {
				lagSum[l.array] += lag
				lagCount[l.array]++
				if lag > lagMax[l.array] {
					lagMax[l.array] = lag
				}
			} else {
				lagCount[l.array]++
			}
		}
		lat.Observe(final)
		tenantLat[r.tenant].Observe(final)
		arrayLat[serving.array].Observe(servingLat)
		if !r.write {
			readLat.Observe(final)
			tenantRead[r.tenant].Observe(final)
		}
		out.Available++
	}
	out.Availability = float64(out.Available) / float64(max64(1, out.Requests))

	// Background streams: count replica/mirror/copy legs per array, and
	// time each copy job's drain from its last settled chunk write.
	jobDone := make([]sim.Time, len(rt.jobs))
	for j, job := range rt.jobs {
		jobDone[j] = job.cutoverAt
	}
	for a := range rt.recs {
		st := stats[a]
		for seq, sr := range rt.recs[a] {
			switch sr.meta.role {
			case roleReplica:
				out.PerArray[a].ReplWrites++
			case roleMirror:
				out.PerArray[a].CopyWrites++
			case roleCopyWrite:
				out.PerArray[a].CopyWrites++
				if j := sr.meta.job; j >= 0 && st != nil && st.lat[seq] >= 0 {
					if done := sr.rec.Timestamp + sim.Time(st.lat[seq]); done > jobDone[j] {
						jobDone[j] = done
					}
				}
			}
		}
	}
	for j, job := range rt.jobs {
		durMs := float64(jobDone[j]-job.start) / float64(sim.Millisecond)
		if durMs > out.Failures[job.fault].RereplicationMs {
			out.Failures[job.fault].RereplicationMs = durMs
		}
	}
	for a := 0; a < c.Arrays; a++ {
		if lagCount[a] > 0 {
			out.PerArray[a].ReplLagMeanUs = lagSum[a] / float64(lagCount[a]) / 1e3
			out.PerArray[a].ReplLagMaxUs = lagMax[a] / 1e3
		}
		if r := results[a]; r != nil {
			out.PerArray[a].GCEpisodes = r.GCEpisodes
			out.PerArray[a].BusyWindows = len(r.Busy)
			out.PerArray[a].WOV = r.Fault.WindowOfVulnerability
			out.WOV += r.Fault.WindowOfVulnerability
		}
	}
	out.Latency = lat.Summarize()
	out.ReadLatency = readLat.Summarize()
	for ti := range c.Tenants {
		out.Tenants[ti].Latency = tenantLat[ti].Summarize()
		out.Tenants[ti].ReadLatency = tenantRead[ti].Summarize()
	}
	for a := 0; a < c.Arrays; a++ {
		out.PerArray[a].Latency = arrayLat[a].Summarize()
		out.PerArray[a].Diverted = rt.diverted[a]
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
