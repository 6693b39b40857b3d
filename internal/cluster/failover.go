// failover.go is the cluster's failure-domain machinery: whole-array fault
// plans, synchronous write replication with a completion barrier, Directory
// failover (repinning a crashed array's volumes onto their replicas), paced
// background copy jobs (re-replication after a crash, failback after a
// recovery), and the offline router that sweeps the admitted request
// stream through all of it.
//
// The router is deliberately offline and single-threaded: cluster state
// (volume placement, array liveness, copy-job progress) advances through a
// time-ordered domain-event queue interleaved with the admitted arrivals,
// so every routing decision is a pure function of the configuration — the
// shard worker pool underneath never sees any of it, which is what keeps
// the byte-identical-across-workers determinism contract intact.
package cluster

import (
	"fmt"
	"sort"

	"gcsteering"
	"gcsteering/internal/obs"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sim"
	"gcsteering/internal/trace"
)

// ArrayFault schedules one whole-array crash: from AtMs the array accepts
// nothing (requests routed to it fail), and after the failover delay the
// Directory repins its volumes onto their replicas (ReplicateWrites only —
// without replication there is no second copy to pin to). DowntimeMs > 0
// recovers the array after that long; 0 means the crash is permanent and
// redundancy is restored onto a spare array instead.
type ArrayFault struct {
	Array      int
	AtMs       float64
	DowntimeMs float64
}

// permanent reports whether the array never comes back.
func (f ArrayFault) permanent() bool { return f.DowntimeMs <= 0 }

// linkSlowdown degrades the replication link into one array: replica and
// mirror legs targeting Array pay ExtraUs on top of the base link latency
// while the window is open. Only a ChaosPlan compiles them.
type linkSlowdown struct {
	Array      int
	StartMs    float64
	DurationMs float64
	ExtraUs    float64
}

// Leg roles: every admitted request lowers to one serving leg plus,
// depending on cluster state, replica/mirror legs; background copy jobs
// contribute read/write legs of their own (rid -1).
const (
	rolePrimary   = uint8(iota) // the serving read/write
	roleReplica                 // synchronous replica write (barrier member)
	roleMirror                  // copy-window mirror write (asynchronous)
	roleCopyRead                // background copy chunk read (source)
	roleCopyWrite               // background copy chunk write (destination)
)

// Copy-job kinds select what flips at cutover.
const (
	jobRerepl   = iota // replica refresh / spare copy: redundancy restored
	jobFailback        // copy-back to a recovered home primary
)

// volState is one volume's live placement and redundancy state.
type volState struct {
	key    string
	tenant int
	bytes  int64
	// primary/replica are the current serving placement; homePrimary and
	// homeReplica the ring placement failover departs from and failback
	// restores.
	primary, replica         int
	homePrimary, homeReplica int
	// degraded marks a volume serving from its only live copy (after
	// failover, or while a spare copy is still streaming).
	degraded bool
	// dirtyBytes accumulates writes the replica missed (replica down, or
	// degraded with no mirror) — the backlog a re-replication job copies.
	dirtyBytes int64
	// job is the in-flight copy job, if any; a volume with a job never
	// takes steering diversions (its replica is not yet up to date).
	job *copyJob
}

// copyJob is one paced background copy stream (re-replication or
// failback), lowered to chunk read/write legs on the source and
// destination shards at rebuild.PaceInterval spacing.
type copyJob struct {
	id        int
	vol       *volState
	kind      int
	from, to  int
	start     sim.Time
	cutoverAt sim.Time
	bytes     int64
	// mirror routes the volume's writes to the destination while the copy
	// streams, so the copied image stays consistent (off for replica
	// refreshes, whose writes already replicate normally).
	mirror bool
	fault  int // FailureEvent index
}

// Domain-event kinds, processed in (at, seq) order interleaved with the
// admitted arrivals.
const (
	evCrash = iota
	evFailover
	evRecover
	evCutover
)

// domainEvent is one scheduled cluster-state transition.
type domainEvent struct {
	at    sim.Time
	seq   int // insertion order, the total-order tiebreak
	kind  int
	array int
	fault int // index into eff.faults / router.faults
	job   *copyJob
}

// legRef locates one of a request's legs after the per-array traces are
// sorted: (array, seq) indexes the shard measurement, role and linkNs
// reconstruct the client view.
type legRef struct {
	array, seq int
	role       uint8
	linkNs     int64
}

// reqRoute is the router's record of one admitted request, joined with the
// shard measurements by aggregate.
type reqRoute struct {
	tenant    int
	write     bool
	redirect  bool
	failed    bool // failed at the router: serving array down
	dataLoss  bool
	failArray int // array whose crash failed it, -1
	// altLive records whether a live, up-to-date second copy existed at
	// routing time — it decides whether an in-flight-at-crash read is a
	// data-loss event or only an availability hit.
	altLive bool
	legs    []legRef
}

// shardRec pairs a shard trace record with its routing metadata; the pair
// sorts as a unit when the per-array stream is time-ordered.
type shardRec struct {
	rec  trace.Record
	meta reqMeta
}

// effectivePlan is the resolved fault configuration: explicit faults plus
// everything the chaos plan compiled, and the per-array intra-array fault
// plans the shards replay under.
type effectivePlan struct {
	faults []ArrayFault
	links  []linkSlowdown
	plans  []gcsteering.FaultPlan
}

// resolve merges the explicit fault configuration with the compiled chaos
// plan and validates the combination. admitted is only read for the chaos
// horizon (the span of the workload).
func (c Config) resolve(admitted []placedReq) (effectivePlan, error) {
	e := effectivePlan{plans: make([]gcsteering.FaultPlan, c.Arrays)}
	for _, a := range c.FaultArrays {
		e.plans[a] = c.Fault
	}
	e.faults = append([]ArrayFault(nil), c.ArrayFaults...)
	if c.Chaos.Enabled() {
		var last sim.Time
		for _, pr := range admitted {
			if pr.rec.Timestamp > last {
				last = pr.rec.Timestamp
			}
		}
		horizonMs := max(1, float64(last)/float64(sim.Millisecond))
		taken := make([]bool, c.Arrays)
		for _, f := range e.faults {
			taken[f.Array] = true
		}
		faults, links, storms := c.Chaos.compile(c.Arrays, c.Base.Disks, horizonMs, taken)
		e.faults = append(e.faults, faults...)
		e.links = links
		for a, ss := range storms {
			if len(ss) > 0 {
				// Copy-on-append: plans[a] may alias c.Fault.Slowdowns
				// shared across FaultArrays entries.
				merged := append([]gcsteering.DiskSlowdown(nil), e.plans[a].Slowdowns...)
				e.plans[a].Slowdowns = append(merged, ss...)
			}
		}
	}
	seen := make([]bool, c.Arrays)
	for _, f := range e.faults {
		if f.Array < 0 || f.Array >= c.Arrays {
			return e, fmt.Errorf("cluster: fault array %d out of range [0,%d)", f.Array, c.Arrays)
		}
		if seen[f.Array] {
			return e, fmt.Errorf("cluster: array %d has more than one whole-array fault", f.Array)
		}
		seen[f.Array] = true
	}
	return e, nil
}

// noCrash is the downAt/upAt sentinel for arrays without a fault.
const noCrash = sim.Time(-1)

// router sweeps the admitted stream through the cluster's failure-domain
// state machine and lowers it to per-array shard traces.
type router struct {
	c        *Config
	eff      effectivePlan
	capacity int64
	ringP    *ring
	busy     []busyTimeline // nil: no steering diversion this pass
	tr       *obs.Tracer
	legacy   bool // reproduce the PR-6 stale-signal diversion exactly

	vols []*volState

	down     []bool
	downAt   []sim.Time
	upAt     []sim.Time
	faultIdx []int // per array, -1

	events   []domainEvent // sorted by (at, seq) from next onward
	next     int
	eventSeq int

	recs       [][]shardRec
	routes     []reqRoute
	jobs       []*copyJob
	faults     []FailureEvent
	diverted   []int64
	replicated int64
	linkNs     int64
}

// legacyRouting reports whether the PR-6 stale-signal diversion applies
// unchanged: no replication, no cluster-level faults, no chaos — the
// regime all pre-existing steering behavior was pinned in.
func (c Config) legacyRouting() bool {
	return !c.ReplicateWrites && len(c.ArrayFaults) == 0 && !c.Chaos.Enabled()
}

// newRouter builds the volume table (in tenant-then-volume order — never
// from a map) and schedules the initial domain events.
func newRouter(c *Config, eff effectivePlan, capacity int64) *router {
	rt := &router{
		c:        c,
		eff:      eff,
		capacity: capacity,
		ringP:    newRing(c.Arrays, vnodes),
		legacy:   c.legacyRouting(),
		down:     make([]bool, c.Arrays),
		downAt:   make([]sim.Time, c.Arrays),
		upAt:     make([]sim.Time, c.Arrays),
		faultIdx: make([]int, c.Arrays),
		recs:     make([][]shardRec, c.Arrays),
		diverted: make([]int64, c.Arrays),
		linkNs:   int64(c.ReplicaLinkUs * float64(sim.Microsecond)),
	}
	for a := 0; a < c.Arrays; a++ {
		rt.downAt[a] = noCrash
		rt.upAt[a] = noCrash
		rt.faultIdx[a] = -1
	}
	for ti, t := range c.Tenants {
		volBytes := capacity / int64(t.volumes())
		for v := 0; v < t.volumes(); v++ {
			key := fmt.Sprintf("%s/%d", t.Name, v)
			primary, replica := rt.ringP.lookup(key)
			if a, ok := c.Directory[key]; ok {
				primary = a
				// The replica still comes from the ring walk (excluding the
				// pinned primary), not (primary+1)%Arrays: the numeric
				// neighbor ignores the ring and can co-locate the replica
				// with the pinned primary's failure neighbor.
				replica = rt.ringP.replicaExcluding(key, primary)
			}
			rt.vols = append(rt.vols, &volState{
				key: key, tenant: ti, bytes: volBytes,
				primary: primary, replica: replica,
				homePrimary: primary, homeReplica: replica,
			})
		}
	}
	for fi, f := range eff.faults {
		at := sim.Time(f.AtMs * float64(sim.Millisecond))
		rt.downAt[f.Array] = at
		rt.faultIdx[f.Array] = fi
		rt.faults = append(rt.faults, FailureEvent{
			Array:      f.Array,
			Permanent:  f.permanent(),
			DownAtMs:   f.AtMs,
			DowntimeMs: f.DowntimeMs,
			SpareArray: -1,
		})
		rt.push(domainEvent{at: at, kind: evCrash, array: f.Array, fault: fi})
		rt.push(domainEvent{at: at + failoverDelay, kind: evFailover, array: f.Array, fault: fi})
		if !f.permanent() {
			up := at + sim.Time(f.DowntimeMs*float64(sim.Millisecond))
			rt.upAt[f.Array] = up
			rt.push(domainEvent{at: up, kind: evRecover, array: f.Array, fault: fi})
		}
	}
	return rt
}

// push inserts ev keeping events[next:] sorted by (at, seq). Insertions
// always target the future, so the processed prefix never moves.
func (rt *router) push(ev domainEvent) {
	ev.seq = rt.eventSeq
	rt.eventSeq++
	// Closure-free binary search for the first future event ordered after
	// ev; push is reachable from event handlers on the routed request path
	// and sort.Search's func argument would escape on every insertion.
	lo, hi := rt.next, len(rt.events)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := rt.events[mid]
		after := e.at > ev.at || (e.at == ev.at && e.seq > ev.seq)
		if after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	rt.events = append(rt.events, domainEvent{})
	copy(rt.events[i+1:], rt.events[i:])
	rt.events[i] = ev
}

// advance processes every domain event scheduled at or before t.
func (rt *router) advance(t sim.Time) {
	for rt.next < len(rt.events) && rt.events[rt.next].at <= t {
		ev := rt.events[rt.next]
		rt.next++
		switch ev.kind {
		case evCrash:
			rt.crash(ev)
		case evFailover:
			rt.failover(ev)
		case evRecover:
			rt.recover(ev)
		case evCutover:
			rt.cutover(ev)
		}
	}
}

func (rt *router) crash(ev domainEvent) {
	rt.down[ev.array] = true
	if rt.tr.Enabled() {
		perm := int64(0)
		if rt.eff.faults[ev.fault].permanent() {
			perm = 1
		}
		rt.tr.Emit(ev.at, obs.Event{Kind: obs.KClusterArrayDown, Dev: int32(ev.array),
			Page: -1, Aux: perm})
	}
}

// failover repins the crashed array's volumes onto their replicas. Without
// ReplicateWrites there is no up-to-date second copy, so nothing repins
// and the array's requests keep failing for the whole outage. A permanent
// crash additionally schedules re-replication onto a spare array for every
// volume that lost a copy.
func (rt *router) failover(ev domainEvent) {
	if !rt.down[ev.array] || !rt.c.ReplicateWrites {
		return // recovered before detection, or nothing to pin to
	}
	f := &rt.faults[ev.fault]
	perm := rt.eff.faults[ev.fault].permanent()
	repinned := 0
	for _, v := range rt.vols {
		switch {
		case v.primary == ev.array:
			if rt.down[v.replica] || v.replica == v.primary {
				continue // no live replica to serve from
			}
			v.primary = v.replica
			v.degraded = true
			repinned++
			if perm {
				spare := rt.ringP.replicaExcluding(v.key, v.primary, ev.array)
				rt.startJob(v, jobRerepl, v.primary, spare, v.bytes, true, ev.fault, ev.at)
				if f.SpareArray < 0 {
					f.SpareArray = spare
				}
			}
		case v.replica == ev.array && !v.degraded:
			if perm {
				// The replica is gone for good: pick a replacement on the
				// next ring arc and stream the volume onto it. New writes
				// replicate to it immediately; the job carries the base
				// image, and diversion stays off until it drains.
				v.replica = rt.ringP.replicaExcluding(v.key, v.primary, ev.array)
				v.dirtyBytes = 0
				rt.startJob(v, jobRerepl, v.primary, v.replica, v.bytes, false, ev.fault, ev.at)
			}
			// Timed crash: writes accumulate dirtyBytes until recovery.
		}
	}
	f.RepinnedVolumes = repinned
	f.FailoverMs = float64(failoverDelay) / float64(sim.Millisecond)
	if rt.tr.Enabled() {
		rt.tr.Emit(ev.at, obs.Event{Kind: obs.KClusterFailover, Dev: int32(ev.array),
			Page: -1, Aux: int64(repinned), Aux2: int64(failoverDelay)})
	}
}

// recover brings a timed-crash array back: clean repinned volumes flip
// home instantly, dirty ones stream their backlog back first, and volumes
// whose replica was down refresh it.
func (rt *router) recover(ev domainEvent) {
	rt.down[ev.array] = false
	if rt.tr.Enabled() {
		rt.tr.Emit(ev.at, obs.Event{Kind: obs.KClusterArrayUp, Dev: int32(ev.array), Page: -1})
	}
	if !rt.c.ReplicateWrites {
		return
	}
	for _, v := range rt.vols {
		switch {
		case v.degraded && v.homePrimary == ev.array && v.job == nil:
			if v.dirtyBytes == 0 {
				v.primary = v.homePrimary
				v.replica = v.homeReplica
				v.degraded = false
				if rt.tr.Enabled() {
					rt.tr.Emit(ev.at, obs.Event{Kind: obs.KClusterCutover,
						Dev: int32(v.homePrimary), Page: -1,
						Aux: int64(v.replica), Aux2: 1, Note: v.key})
				}
				continue
			}
			bytes := v.dirtyBytes
			v.dirtyBytes = 0
			rt.startJob(v, jobFailback, v.primary, v.homePrimary, bytes, true, ev.fault, ev.at)
		case !v.degraded && v.replica == ev.array && v.dirtyBytes > 0 && v.job == nil:
			bytes := v.dirtyBytes
			v.dirtyBytes = 0
			rt.startJob(v, jobRerepl, v.primary, ev.array, bytes, false, ev.fault, ev.at)
		}
	}
}

// cutover applies a drained copy job's placement flip.
func (rt *router) cutover(ev domainEvent) {
	job := ev.job
	v := job.vol
	if v.job != job {
		return
	}
	v.job = nil
	switch job.kind {
	case jobFailback:
		v.primary = v.homePrimary
		v.replica = v.homeReplica
		v.degraded = false
	case jobRerepl:
		v.replica = job.to
		v.degraded = false
	}
	if rt.tr.Enabled() {
		rt.tr.Emit(ev.at, obs.Event{Kind: obs.KClusterCutover, Dev: int32(job.to),
			Page: -1, Aux: int64(job.from), Aux2: 1, Note: v.key})
	}
}

// copyChunk sizes one paced transfer: 256 KiB chunks, coarsened so no job
// exceeds 96 chunks, page-aligned.
func copyChunk(bytes int64) int64 {
	chunk := int64(256 << 10)
	if n := (bytes + 95) / 96; n > chunk {
		chunk = n
	}
	if rem := chunk % 4096; rem != 0 {
		chunk += 4096 - rem
	}
	return chunk
}

// startJob creates a copy job, lowers it to paced chunk read/write legs on
// the source and destination shards, and schedules its cutover.
//
// Episodic: one job per fault domain event; the job struct and its chunk
// legs are the work itself, not per-request overhead.
//
//gcsvet:cold
func (rt *router) startJob(v *volState, kind, from, to int, bytes int64, mirror bool, fault int, now sim.Time) {
	if bytes < 4096 {
		bytes = 4096
	}
	chunk := copyChunk(bytes)
	chunks := (bytes + chunk - 1) / chunk
	interval := rebuild.PaceInterval(chunk, rereplicateMBps)
	job := &copyJob{
		id: len(rt.jobs), vol: v, kind: kind, from: from, to: to,
		start: now, cutoverAt: now + sim.Time(chunks)*interval,
		bytes: bytes, mirror: mirror, fault: fault,
	}
	v.job = job
	rt.jobs = append(rt.jobs, job)
	rt.faults[fault].RereplicatedBytes += bytes
	if rt.tr.Enabled() {
		rt.tr.Emit(now, obs.Event{Kind: obs.KClusterCopyStart, Dev: int32(to),
			Page: -1, Aux: int64(from), Aux2: bytes, Note: v.key})
	}
	for k := int64(0); k < chunks; k++ {
		off := k * chunk
		size := chunk
		if off+size > bytes {
			size = bytes - off
		}
		if size < 4096 {
			size = 4096
		}
		at := now + sim.Time(k)*interval
		meta := reqMeta{rid: -1, job: int32(job.id), tenant: int32(v.tenant)}
		rrec := trace.Record{Timestamp: at, Size: int(size),
			Offset: arrayOffset(v.key, from, off%v.bytes, rt.capacity, v.bytes)}
		meta.role = roleCopyRead
		rt.recs[from] = append(rt.recs[from], shardRec{rec: rrec, meta: meta})
		wrec := trace.Record{Timestamp: at, Size: int(size), Write: true,
			Offset: arrayOffset(v.key, to, off%v.bytes, rt.capacity, v.bytes)}
		meta.role = roleCopyWrite
		rt.recs[to] = append(rt.recs[to], shardRec{rec: wrec, meta: meta})
	}
	rt.push(domainEvent{at: job.cutoverAt, kind: evCutover, fault: fault, job: job})
}

// linkDelayNs is the replication-link latency into array at instant t:
// the configured base plus any open LinkSlowdown windows.
func (rt *router) linkDelayNs(array int, t sim.Time) int64 {
	d := rt.linkNs
	for _, l := range rt.eff.links {
		if l.Array != array {
			continue
		}
		start := sim.Time(l.StartMs * float64(sim.Millisecond))
		end := start + sim.Time(l.DurationMs*float64(sim.Millisecond))
		if t >= start && t < end {
			d += int64(l.ExtraUs * float64(sim.Microsecond))
		}
	}
	return d
}

// route sweeps the admitted stream: per request it advances the domain
// clock, resolves the serving array (failing requests whose array is
// down), applies steering diversion, and emits the serving, replica, and
// mirror legs. Afterwards it drains the remaining domain events and
// time-sorts every per-array stream.
// route is a gcsvet hot-path root: the sweep body runs once per admitted
// request across the whole fleet, so hotalloc holds it and everything it
// reaches allocation-free (the routes/recs slabs are set up once per
// sweep and grow amortized).
//
//gcsvet:hot
func (rt *router) route(admitted []placedReq, busy []busyTimeline, tr *obs.Tracer) {
	rt.busy = busy
	rt.tr = tr
	rt.routes = make([]reqRoute, len(admitted))
	for i, pr := range admitted {
		t := pr.rec.Timestamp
		rt.advance(t)
		v := rt.vols[pr.vol]
		r := &rt.routes[i]
		r.tenant = pr.tenant
		r.write = pr.rec.Write
		r.failArray = -1

		if rt.down[v.primary] {
			rt.fail(i, pr, v, t)
			continue
		}
		target := v.primary
		if rt.divert(v, pr.rec, t) {
			target = v.replica
			r.redirect = true
			rt.diverted[v.primary]++
		}
		r.altLive = rt.c.ReplicateWrites && !v.degraded && v.replica != v.primary &&
			v.dirtyBytes == 0 && v.job == nil && !rt.down[v.replica]
		if tr.Enabled() {
			if r.redirect {
				tr.Emit(t, obs.Event{Kind: obs.KClusterRedirect, Dev: int32(target),
					Page: -1, Aux: int64(v.primary), Aux2: int64(len(rt.recs[target]))})
			} else {
				tr.Emit(t, obs.Event{Kind: obs.KClusterPlace, Dev: int32(target),
					Page: -1, Aux: int64(pr.tenant), Aux2: int64(len(rt.recs[target]))})
			}
		}
		rec := pr.rec
		rec.Offset = arrayOffset(v.key, target, pr.within, rt.capacity, v.bytes)
		rt.recs[target] = append(rt.recs[target], shardRec{rec: rec, meta: reqMeta{
			rid: int64(i), job: -1, tenant: int32(pr.tenant),
			write: pr.rec.Write, redirect: r.redirect, role: rolePrimary,
		}})

		if !pr.rec.Write {
			continue
		}
		size := int64(pr.rec.Size)
		if rt.c.ReplicateWrites && !v.degraded && v.replica != v.primary {
			if rt.down[v.replica] {
				v.dirtyBytes += size
			} else {
				link := rt.linkDelayNs(v.replica, t)
				rrec := pr.rec
				rrec.Timestamp = t + sim.Time(link)
				rrec.Offset = arrayOffset(v.key, v.replica, pr.within, rt.capacity, v.bytes)
				rt.recs[v.replica] = append(rt.recs[v.replica], shardRec{rec: rrec, meta: reqMeta{
					rid: int64(i), job: -1, tenant: int32(pr.tenant),
					write: true, role: roleReplica, linkNs: link,
				}})
				rt.replicated++
				if tr.Enabled() {
					tr.Emit(t, obs.Event{Kind: obs.KClusterReplicate, Dev: int32(v.replica),
						Page: -1, Aux: int64(v.primary), Aux2: int64(i)})
				}
			}
		} else if v.degraded && v.job == nil {
			v.dirtyBytes += size
		}
		if v.job != nil && v.job.mirror && !rt.down[v.job.to] {
			link := rt.linkDelayNs(v.job.to, t)
			mrec := pr.rec
			mrec.Timestamp = t + sim.Time(link)
			mrec.Offset = arrayOffset(v.key, v.job.to, pr.within, rt.capacity, v.bytes)
			rt.recs[v.job.to] = append(rt.recs[v.job.to], shardRec{rec: mrec, meta: reqMeta{
				rid: int64(i), job: int32(v.job.id), tenant: int32(pr.tenant),
				write: true, role: roleMirror, linkNs: link,
			}})
		}
	}
	// Drain the remaining domain events (recoveries, cutovers past the last
	// arrival) so their trace events and state flips still happen.
	rt.advance(sim.Time(1) << 62)
	rt.finish()
}

// fail records a request whose serving array is down: an availability
// miss, and a data-loss event when no live copy of the data remains
// anywhere (permanent crash with no up-to-date replica).
func (rt *router) fail(i int, pr placedReq, v *volState, t sim.Time) {
	r := &rt.routes[i]
	r.failed = true
	r.failArray = v.primary
	fi := rt.faultIdx[v.primary]
	if fi >= 0 {
		rt.faults[fi].FailedRequests++
	}
	if rt.tr.Enabled() {
		rt.tr.Emit(t, obs.Event{Kind: obs.KClusterFailedReq, Dev: int32(v.primary),
			Page: -1, Aux: int64(pr.tenant), Aux2: int64(i)})
	}
	if pr.rec.Write {
		return
	}
	perm := fi >= 0 && rt.eff.faults[fi].permanent()
	altLive := rt.c.ReplicateWrites && v.replica != v.primary && !rt.down[v.replica]
	if perm && !altLive {
		r.dataLoss = true
		if fi >= 0 {
			rt.faults[fi].DataLossReads++
		}
		if rt.tr.Enabled() {
			rt.tr.Emit(t, obs.Event{Kind: obs.KClusterDataLoss, Dev: int32(v.primary),
				Page: -1, Aux: int64(pr.tenant), Aux2: int64(i)})
		}
	}
}

// divert decides steering diversion for one read. In legacy mode (the
// pre-failure-domain configuration space) it reproduces the PR-6 condition
// exactly; with replication on it additionally requires the replica to be
// live and provably up to date (not degraded, no dirty backlog, no copy
// job), because a diverted read must return current data, not a stale
// approximation.
func (rt *router) divert(v *volState, rec trace.Record, t sim.Time) bool {
	if rt.busy == nil || rec.Write || v.replica == v.primary {
		return false
	}
	if rt.legacy {
		return rt.busy[v.primary].at(t) && !rt.busy[v.replica].at(t)
	}
	if !rt.c.ReplicateWrites {
		return false
	}
	if v.degraded || v.dirtyBytes > 0 || v.job != nil || rt.down[v.replica] {
		return false
	}
	return rt.busy[v.primary].at(t) && !rt.busy[v.replica].at(t)
}

// finish time-sorts every per-array stream (replica and copy legs arrive
// out of admitted order) and resolves each request's legs against the
// post-sort sequence numbers the shards will report. Every route's legs
// are carved out of one slab at its request's prefix offset, in (array,
// seq) order, so the sweep allocates the legs once rather than per
// request.
//
// Episodic: once-per-sweep teardown after routing completes.
//
//gcsvet:cold
func (rt *router) finish() {
	counts := make([]int32, len(rt.routes))
	total := 0
	for a := range rt.recs {
		recs := rt.recs[a]
		sort.SliceStable(recs, func(i, j int) bool {
			return recs[i].rec.Timestamp < recs[j].rec.Timestamp
		})
		for _, sr := range recs {
			if sr.meta.rid >= 0 {
				counts[sr.meta.rid]++
				total++
			}
		}
	}
	slab := make([]legRef, total)
	off := 0
	for i, n := range counts {
		if n > 0 {
			end := off + int(n)
			rt.routes[i].legs = slab[off:off:end]
			off = end
		}
	}
	for a, recs := range rt.recs {
		for seq, sr := range recs {
			if sr.meta.rid >= 0 {
				r := &rt.routes[sr.meta.rid]
				r.legs = append(r.legs, legRef{array: a, seq: seq,
					role: sr.meta.role, linkNs: sr.meta.linkNs})
			}
		}
	}
}

// traces lowers the sorted per-array streams to replayable shard traces.
func (rt *router) traces() []trace.Trace {
	trs := make([]trace.Trace, rt.c.Arrays)
	for a, recs := range rt.recs {
		if len(recs) == 0 {
			continue
		}
		tr := make(trace.Trace, len(recs))
		for i, sr := range recs {
			tr[i] = sr.rec
		}
		trs[a] = tr
	}
	return trs
}
