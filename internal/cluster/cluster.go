// Package cluster is the fleet-simulation layer: it composes many
// independent, deterministic array simulations (one gcsteering.System —
// one discrete-event engine — per array) behind a placement and routing
// tier, scaling the paper's intra-array GC-aware steering up to the
// between-array case. Tenant volumes land on arrays by consistent hashing
// (with a pluggable directory override), per-tenant synthetic workloads are
// layered on internal/workload, and the router diverts reads away from
// arrays reporting GC episodes, open health breakers, or in-flight
// rebuilds — the same busy signals the intra-array scheme steers on,
// surfaced through Results.Busy.
//
// Determinism contract: shards replay concurrently on a bounded worker
// pool, but every shard is a self-contained engine, per-shard measurements
// land in slots indexed by array, and all merging happens in array order
// after the pool drains — so aggregated results and traces are
// byte-identical across worker counts.
//
// The steering signal is deliberately stale: under PolicySteering the
// cluster replays twice. The first pass routes everything to its primary
// placement and collects per-array busy timelines; the second diverts
// reads whose primary is busy at their arrival instant to the volume's
// replica. A real router acts on telemetry from the recent past, not on
// the instantaneous device state its own routing will change; the
// two-pass scheme models exactly that separation (and keeps each pass
// deterministic).
package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"gcsteering"
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
	"gcsteering/internal/trace"
	"gcsteering/internal/workload"
)

// QoS is a tenant's service class, which selects its default admission
// budget (see Tenant.BudgetPerWindow).
type QoS int

const (
	// Gold tenants are never shed by the cluster admission tier.
	Gold QoS = iota
	// Silver tenants get a generous per-window budget.
	Silver
	// Bronze tenants are shed first under burst pressure.
	Bronze
)

// String names the class for reports.
func (q QoS) String() string {
	switch q {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	case Bronze:
		return "bronze"
	default:
		return fmt.Sprintf("QoS(%d)", int(q))
	}
}

// defaultBudget is the per-window admission budget implied by the class
// (0 = unlimited).
func (q QoS) defaultBudget() int {
	switch q {
	case Silver:
		return 64
	case Bronze:
		return 24
	default:
		return 0
	}
}

// Policy selects the cluster routing scheme.
type Policy int

const (
	// PolicyHash routes every request to its consistent-hash primary —
	// the placement-only baseline.
	PolicyHash Policy = iota
	// PolicySteering additionally diverts reads whose primary array is
	// busy (GC episode, open breaker, or rebuild in flight) to the
	// volume's replica, when the replica itself is not busy.
	PolicySteering
)

// String names the policy as in the cluster grid.
func (p Policy) String() string {
	if p == PolicySteering {
		return "gc-aware"
	}
	return "hash-only"
}

// Tenant describes one workload source sharing the fleet.
type Tenant struct {
	// Name identifies the tenant; volume keys are "<name>/<volume>".
	Name string
	// Profile is a Table-I workload profile name (workload.ByName).
	Profile string
	// QoS selects the default admission budget.
	QoS QoS
	// Requests caps this tenant's generated request count.
	Requests int
	// ArrivalScale multiplies the profile's mean IOPS (0 = 1).
	ArrivalScale float64
	// Volumes is how many volumes the tenant's address space splits into;
	// each volume is placed independently on the ring (0 = 1).
	Volumes int
	// BudgetPerWindow overrides the admission budget: requests admitted
	// per tenant per budget window. > 0 sets it, < 0 means unlimited,
	// 0 uses the QoS default.
	BudgetPerWindow int
}

// volumes returns the effective volume count.
func (t Tenant) volumes() int {
	if t.Volumes < 1 {
		return 1
	}
	return t.Volumes
}

// budget resolves the effective per-window budget (0 = unlimited).
func (t Tenant) budget() int {
	switch {
	case t.BudgetPerWindow > 0:
		return t.BudgetPerWindow
	case t.BudgetPerWindow < 0:
		return 0
	default:
		return t.QoS.defaultBudget()
	}
}

// Config describes one fleet simulation.
type Config struct {
	// Arrays is the fleet size: one independent System (engine) each.
	Arrays int
	// VNodes is the virtual nodes per array on the placement ring (0 = 64).
	VNodes int
	// Policy selects hash-only or GC-aware routing.
	Policy Policy
	// Workers bounds the shard worker pool (0 = GOMAXPROCS). The worker
	// count never changes results — only wall time.
	Workers int
	// Seed offsets every derived seed (shards, workloads).
	Seed int64
	// Base is the per-array configuration; each shard runs a copy with a
	// shard-specific seed. Base.Seed participates in seed derivation.
	Base gcsteering.Config
	// Tenants are the workload sources. At least one is required.
	Tenants []Tenant
	// Directory overrides ring placement for specific volume keys
	// ("tenant/vol" -> array index). It is consulted per lookup and never
	// iterated, so it cannot leak map order into results.
	Directory map[string]int
	// BudgetWindowMs is the admission window length (0 = 10 ms).
	BudgetWindowMs float64
	// FaultArrays lists arrays that replay under Fault (fault injection /
	// rebuild); the rest run healthy.
	FaultArrays []int
	// Fault is the fault plan applied to each array in FaultArrays.
	Fault gcsteering.FaultPlan

	// ReplicateWrites mirrors every write synchronously onto the volume's
	// ring replica: the request completes when both the primary and the
	// replica leg have (a completion barrier), which is what makes
	// replica-diverted reads return current data and whole-array failover
	// possible at all. Off, the replica is the stale-signal approximation
	// of PR 6 and arrays are single failure domains.
	ReplicateWrites bool
	// ReplicaLinkUs is the one-way inter-array link latency (µs) replica
	// and mirror legs pay each direction. 0 models a free link.
	ReplicaLinkUs float64
	// ArrayFaults schedules whole-array crashes (at most one per array).
	ArrayFaults []ArrayFault
	// FailoverDelayMs is the detection gap between a crash and the
	// Directory repinning its volumes onto replicas (0 = 2 ms). Requests
	// arriving in the gap fail.
	FailoverDelayMs float64
	// RereplicateMBps caps each background re-replication copy stream
	// (0 = 200), paced with the rebuild engine's interval model.
	RereplicateMBps float64
	// Migrations schedules live volume migrations (drain → copy → flip).
	Migrations []Migration
	// MigrateMBps caps migration copy streams (0 = RereplicateMBps).
	MigrateMBps float64
	// LinkFaults degrade the replication link into specific arrays.
	LinkFaults []LinkSlowdown
	// ResyncMBps models the crash-consistency resync a recovering array
	// must run before serving again: a timed-crash array stays down past
	// its nominal recovery instant for resyncBytes / ResyncMBps, where the
	// scope depends on IntentJournal. <= 0 disables the modeled resync —
	// the pre-crash-consistency behavior, in which a recovered array
	// returns magically consistent (kept for byte-identical legacy runs).
	ResyncMBps float64
	// IntentJournal scopes the modeled resync to the write backlog of the
	// journal's open-intent horizon before the crash (the dirty-stripe
	// list); off, the recovering array must walk every hosted byte — the
	// full-scrub window of vulnerability.
	IntentJournal bool
	// DeadlineMs is the availability deadline: a settled request counts as
	// available when its client latency is within this many milliseconds
	// (0 = any settled request counts). Failed and rejected requests are
	// never available.
	DeadlineMs float64
	// Chaos seeds deterministic fleet-level adversity (crashes, link
	// slowdowns, correlated GC storms) compiled into the plans above.
	Chaos ChaosPlan

	// Trace, when non-nil, receives the merged JSONL event stream: the
	// router's placement/redirect/shed events first, then each shard's
	// engine events in array order.
	Trace io.Writer
}

func (c Config) vnodes() int {
	if c.VNodes <= 0 {
		return 64
	}
	return c.VNodes
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) windowNs() int64 {
	ms := c.BudgetWindowMs
	if ms <= 0 {
		ms = 10
	}
	return int64(ms * float64(sim.Millisecond))
}

// failoverDelayMs resolves the crash-detection gap (default 2 ms).
func (c Config) failoverDelayMs() float64 {
	if c.FailoverDelayMs <= 0 {
		return 2
	}
	return c.FailoverDelayMs
}

func (c Config) failoverDelay() sim.Time {
	return sim.Time(c.failoverDelayMs() * float64(sim.Millisecond))
}

// rereplicateMBps resolves the re-replication bandwidth cap (default 200).
func (c Config) rereplicateMBps() float64 {
	if c.RereplicateMBps <= 0 {
		return 200
	}
	return c.RereplicateMBps
}

// migrateMBps resolves the migration bandwidth cap.
func (c Config) migrateMBps() float64 {
	if c.MigrateMBps <= 0 {
		return c.rereplicateMBps()
	}
	return c.MigrateMBps
}

// deadlineNs resolves the availability deadline (0 = none).
func (c Config) deadlineNs() int64 {
	if c.DeadlineMs <= 0 {
		return 0
	}
	return int64(c.DeadlineMs * float64(sim.Millisecond))
}

// Validate reports configuration errors before any shard is built.
func (c Config) Validate() error {
	if c.Arrays < 2 {
		return fmt.Errorf("cluster: Arrays %d too few (need >= 2 for replica placement)", c.Arrays)
	}
	if c.VNodes < 0 {
		// 0 means "use the default"; an explicit negative count would build
		// an empty placement ring whose lookups could never spread keys.
		return fmt.Errorf("cluster: VNodes %d negative (0 selects the default of 64)", c.VNodes)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("cluster: no tenants")
	}
	for i, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("cluster: tenant %d has no name", i)
		}
		if _, ok := workload.ByName(t.Profile); !ok {
			return fmt.Errorf("cluster: tenant %q: unknown profile %q", t.Name, t.Profile)
		}
		if t.Requests <= 0 {
			return fmt.Errorf("cluster: tenant %q: Requests must be > 0", t.Name)
		}
	}
	for _, a := range c.FaultArrays {
		if a < 0 || a >= c.Arrays {
			return fmt.Errorf("cluster: FaultArrays entry %d out of range [0,%d)", a, c.Arrays)
		}
	}
	for k, a := range c.Directory {
		if a < 0 || a >= c.Arrays {
			return fmt.Errorf("cluster: Directory[%q] = %d out of range [0,%d)", k, a, c.Arrays)
		}
	}
	if c.ReplicaLinkUs < 0 || math.IsNaN(c.ReplicaLinkUs) || math.IsInf(c.ReplicaLinkUs, 0) {
		return fmt.Errorf("cluster: ReplicaLinkUs %v invalid", c.ReplicaLinkUs)
	}
	for _, v := range []float64{c.FailoverDelayMs, c.RereplicateMBps, c.MigrateMBps, c.DeadlineMs} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: failover/copy/deadline knobs must be finite and non-negative")
		}
	}
	seenFault := make([]bool, c.Arrays)
	for _, f := range c.ArrayFaults {
		if f.Array < 0 || f.Array >= c.Arrays {
			return fmt.Errorf("cluster: ArrayFaults entry %d out of range [0,%d)", f.Array, c.Arrays)
		}
		if f.AtMs < 0 || f.DowntimeMs < 0 {
			return fmt.Errorf("cluster: array %d fault times must be non-negative", f.Array)
		}
		if seenFault[f.Array] {
			return fmt.Errorf("cluster: array %d has more than one whole-array fault", f.Array)
		}
		seenFault[f.Array] = true
	}
	for _, l := range c.LinkFaults {
		if l.Array < 0 || l.Array >= c.Arrays {
			return fmt.Errorf("cluster: LinkFaults entry %d out of range [0,%d)", l.Array, c.Arrays)
		}
	}
	for _, m := range c.Migrations {
		ti := -1
		for i, t := range c.Tenants {
			if t.Name == m.Tenant {
				ti = i
				break
			}
		}
		if ti < 0 {
			return fmt.Errorf("cluster: migration names unknown tenant %q", m.Tenant)
		}
		if m.Volume < 0 || m.Volume >= c.Tenants[ti].volumes() {
			return fmt.Errorf("cluster: migration volume %s/%d out of range", m.Tenant, m.Volume)
		}
		if m.To < 0 || m.To >= c.Arrays {
			return fmt.Errorf("cluster: migration target %d out of range [0,%d)", m.To, c.Arrays)
		}
		if m.AtMs < 0 {
			return fmt.Errorf("cluster: migration %s/%d AtMs must be non-negative", m.Tenant, m.Volume)
		}
	}
	if err := c.Chaos.validate(c.Arrays); err != nil {
		return err
	}
	return c.Base.Validate()
}

// placedReq is one admitted request resolved to its volume.
type placedReq struct {
	rec    trace.Record // Offset still tenant-relative
	tenant int
	vol    int   // global volume index (tenant-major order)
	within int64 // offset inside the volume
}

// reqMeta rides alongside each shard-trace record so the measurements can
// be joined back to the admitted request (or background copy job) that
// produced the leg.
type reqMeta struct {
	rid      int64 // admitted request index; -1 for background copy legs
	job      int32 // copy job id; -1 outside copy windows
	tenant   int32
	write    bool
	redirect bool
	role     uint8
	linkNs   int64 // one-way link latency this leg paid to arrive
}

// shardStats holds one shard's per-sequence settled latencies, filled by
// the request observer inside the shard's own goroutine. All histogram
// work happens later, in the deterministic join pass — the slots are
// indexed by trace sequence, so the worker pool cannot reorder anything.
type shardStats struct {
	lat []int64 // -1 = rejected, -2 = never observed
}

// Run executes the fleet simulation and aggregates the results.
func Run(c Config) (*ClusterResults, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	capacity := c.Base.Capacity()
	var routerTracer *obs.Tracer
	var routerBuf bytes.Buffer
	if c.Trace != nil {
		routerTracer = obs.New(&routerBuf)
	}
	admitted, shedPerTenant, err := c.admit(capacity, routerTracer)
	if err != nil {
		return nil, err
	}
	eff, err := c.resolve(admitted)
	if err != nil {
		return nil, err
	}

	var busy []busyTimeline
	if c.Policy == PolicySteering {
		// Profile pass: routing without diversion, with busy recording. No
		// tracers — this pass only yields the steering signal.
		profileRt := newRouter(&c, eff, capacity)
		profileRt.route(admitted, nil, nil)
		profile, _, err := c.runShards(profileRt.traces(), eff.plans, nil)
		if err != nil {
			return nil, err
		}
		busy = make([]busyTimeline, c.Arrays)
		for a, r := range profile {
			if r != nil {
				busy[a] = newBusyTimeline(r.Busy)
			}
		}
	}

	// Routing pass (single-threaded): sweep the admitted stream through
	// the failure-domain state machine, diverting reads whose primary is
	// busy at arrival when the replica can serve them correctly.
	rt := newRouter(&c, eff, capacity)
	rt.route(admitted, busy, routerTracer)

	var bufs []*bytes.Buffer
	if c.Trace != nil {
		bufs = make([]*bytes.Buffer, c.Arrays)
		for i := range bufs {
			bufs[i] = &bytes.Buffer{}
		}
	}
	results, stats, err := c.runShards(rt.traces(), eff.plans, bufs)
	if err != nil {
		return nil, err
	}

	if c.Trace != nil {
		if err := routerTracer.Flush(); err != nil {
			return nil, err
		}
		if _, err := c.Trace.Write(routerBuf.Bytes()); err != nil {
			return nil, err
		}
		for _, b := range bufs {
			if _, err := c.Trace.Write(b.Bytes()); err != nil {
				return nil, err
			}
		}
	}

	return c.aggregate(admitted, shedPerTenant, rt, results, stats), nil
}

// admit synthesizes every tenant's trace, merges them into one
// time-ordered stream, resolves each request's volume, and applies the
// per-tenant admission budgets. Returns the admitted requests in arrival
// order and the per-tenant shed counts; sheds are traced on tr. Placement
// is the router's job — it owns the live volume state.
func (c Config) admit(capacity int64, tr *obs.Tracer) ([]placedReq, []int64, error) {
	volBase := make([]int, len(c.Tenants))
	for ti := 1; ti < len(c.Tenants); ti++ {
		volBase[ti] = volBase[ti-1] + c.Tenants[ti-1].volumes()
	}
	var all []placedReq
	for ti, t := range c.Tenants {
		p, _ := workload.ByName(t.Profile)
		g, err := workload.NewGenerator(p, workload.Options{
			Capacity:     capacity,
			MaxRequests:  t.Requests,
			Seed:         c.Seed + c.Base.Seed + int64(ti+1)*7_368_787,
			ArrivalScale: t.ArrivalScale,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: tenant %q: %w", t.Name, err)
		}
		volBytes := capacity / int64(t.volumes())
		for {
			rec, ok := g.Next()
			if !ok {
				break
			}
			vol := rec.Offset / volBytes
			if vol >= int64(t.volumes()) {
				vol = int64(t.volumes()) - 1
			}
			all = append(all, placedReq{
				rec:    rec,
				tenant: ti,
				vol:    volBase[ti] + int(vol),
				within: rec.Offset - vol*volBytes,
			})
		}
	}
	// Merge into one arrival-ordered stream. SliceStable plus the tenant
	// tiebreak makes the order a pure function of the inputs.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].rec.Timestamp != all[j].rec.Timestamp {
			return all[i].rec.Timestamp < all[j].rec.Timestamp
		}
		return all[i].tenant < all[j].tenant
	})

	// Windowed admission: each tenant may admit budget() requests per
	// BudgetWindowMs window; the rest are shed before routing. The budget
	// is policy-independent so a hash-vs-steering comparison isolates the
	// routing decision.
	windowNs := c.windowNs()
	shed := make([]int64, len(c.Tenants))
	lastWin := make([]int64, len(c.Tenants))
	inWin := make([]int, len(c.Tenants))
	for i := range lastWin {
		lastWin[i] = -1
	}
	admitted := all[:0]
	for i, pr := range all {
		b := c.Tenants[pr.tenant].budget()
		if b > 0 {
			w := int64(pr.rec.Timestamp) / windowNs
			if w != lastWin[pr.tenant] {
				lastWin[pr.tenant] = w
				inWin[pr.tenant] = 0
			}
			if inWin[pr.tenant] >= b {
				shed[pr.tenant]++
				if tr.Enabled() {
					tr.Emit(pr.rec.Timestamp, obs.Event{Kind: obs.KClusterShed,
						Dev: -1, Page: -1, Aux: int64(pr.tenant), Aux2: int64(i)})
				}
				continue
			}
			inWin[pr.tenant]++
		}
		admitted = append(admitted, pr)
	}
	return admitted, shed, nil
}

// arrayOffset maps a within-volume offset to an array-local byte offset.
// Each (volume, array) pair gets its own page-aligned base derived by
// hashing, so a volume's primary and replica copies live at independent
// positions — colocated volumes on one array interleave rather than
// stack.
func arrayOffset(volKey string, array int, within, capacity, volBytes int64) int64 {
	room := capacity - volBytes
	var base int64
	if room > 0 {
		base = int64(fnv64At(volKey, array) % uint64(room))
		base -= base % 4096
	}
	off := base + within
	if off >= capacity {
		off = capacity - 4096
	}
	if off < 0 {
		off = 0
	}
	return off
}

// runShards replays every non-empty shard trace on the worker pool and
// returns per-array results and stats slices indexed by array. Each array
// replays under its resolved fault plan. All cross-shard merging is left
// to the caller; this function only guarantees slot isolation.
func (c Config) runShards(trs []trace.Trace, plans []gcsteering.FaultPlan, bufs []*bytes.Buffer) ([]*gcsteering.Results, []*shardStats, error) {
	results := make([]*gcsteering.Results, c.Arrays)
	stats := make([]*shardStats, c.Arrays)
	errs := make([]error, c.Arrays)

	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := c.workers()
	if workers > c.Arrays {
		workers = c.Arrays
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Sanctioned concurrency (nodeterm allowlists internal/cluster):
		// each shard is a self-contained engine; results land in
		// per-array slots and merge in array order after the pool drains.
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx], stats[idx], errs[idx] = c.runShard(idx, trs[idx], plans[idx], bufs)
			}
		}()
	}
	for i := range trs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: array %d: %w", i, err)
		}
	}
	return results, stats, nil
}

// runShard builds and replays one array. Runs inside a pool worker; it
// touches only its own slot data.
func (c Config) runShard(idx int, tr trace.Trace, plan gcsteering.FaultPlan, bufs []*bytes.Buffer) (*gcsteering.Results, *shardStats, error) {
	if len(tr) == 0 {
		return nil, nil, nil // an array no volume landed on
	}
	cfg := c.Base
	cfg.Seed = c.Base.Seed + c.Seed + int64(idx+1)*1_000_003
	cfg.RecordBusy = true
	cfg.Trace = nil
	if bufs != nil {
		cfg.Trace = gcsteering.NewTracer(bufs[idx])
	}
	cfg.Fault = plan
	sys, err := gcsteering.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	st := &shardStats{lat: make([]int64, len(tr))}
	for i := range st.lat {
		st.lat[i] = -2
	}
	sys.ObserveRequests(func(seq int64, latNs int64, rejected bool) {
		if rejected {
			st.lat[seq] = -1
			return
		}
		st.lat[seq] = latNs
	})
	r, err := sys.Replay(tr)
	if err != nil {
		return nil, nil, err
	}
	if err := cfg.Trace.Flush(); err != nil {
		return nil, nil, err
	}
	return r, st, nil
}

// busyTimeline is an array's merged busy windows, queryable by instant.
type busyTimeline struct {
	starts []sim.Time
	ends   []sim.Time
}

// newBusyTimeline merges possibly-overlapping intervals (any kind, any
// member device: one busy member makes the array report busy) into a
// sorted disjoint timeline.
func newBusyTimeline(in []gcsteering.BusyInterval) busyTimeline {
	if len(in) == 0 {
		return busyTimeline{}
	}
	iv := make([]gcsteering.BusyInterval, len(in))
	copy(iv, in)
	sort.Slice(iv, func(i, j int) bool {
		if iv[i].Start != iv[j].Start {
			return iv[i].Start < iv[j].Start
		}
		return iv[i].End < iv[j].End
	})
	var tl busyTimeline
	curS, curE := iv[0].Start, iv[0].End
	for _, w := range iv[1:] {
		if w.Start <= curE {
			if w.End > curE {
				curE = w.End
			}
			continue
		}
		tl.starts = append(tl.starts, curS)
		tl.ends = append(tl.ends, curE)
		curS, curE = w.Start, w.End
	}
	tl.starts = append(tl.starts, curS)
	tl.ends = append(tl.ends, curE)
	return tl
}

// at reports whether the array was busy at instant t. The binary search is
// hand-rolled rather than sort.Search because at sits on the per-request
// divert path and sort.Search's func argument escapes on every call.
func (tl busyTimeline) at(t sim.Time) bool {
	lo, hi := 0, len(tl.starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.starts[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo > 0 && t < tl.ends[lo-1]
}
