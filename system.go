package gcsteering

import (
	"fmt"
	"io"
	"math/rand"

	"errors"

	"gcsteering/internal/core"
	"gcsteering/internal/fault"
	"gcsteering/internal/health"
	"gcsteering/internal/metrics"
	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sched"
	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
	"gcsteering/internal/trace"
	"gcsteering/internal/workload"
)

// Trace and Record re-export the trace model for the public API.
type (
	// Trace is an ordered sequence of I/O requests.
	Trace = trace.Trace
	// Record is one I/O request.
	Record = trace.Record
	// Profile is a synthetic workload description.
	Profile = workload.Profile
	// LatencySummary holds response-time statistics (nanoseconds).
	LatencySummary = metrics.Summary
	// SteeringStats exposes the redirector's counters.
	SteeringStats = core.Stats
	// Time is a simulated instant/duration in nanoseconds.
	Time = sim.Time
	// Tracer is the structured event tracer (see Config.Trace). The emitted
	// stream is newline-delimited JSON; the schema is documented in
	// internal/obs and README.md.
	Tracer = obs.Tracer
	// Recorder is the windowed time-series collector behind Results.Series.
	Recorder = metrics.Recorder
	// ScrubStats exposes the patrol scrubber's counters (Results.Scrub).
	ScrubStats = rebuild.ScrubStats
)

// NewTracer returns a structured event tracer writing JSON lines to w.
// Assign it to Config.Trace and call Flush after the run.
func NewTracer(w io.Writer) *Tracer { return obs.New(w) }

// Profiles returns the paper's eight Table I workload profiles.
func Profiles() []Profile { return workload.All() }

// ProfileByName returns the named Table I profile.
func ProfileByName(name string) (Profile, bool) { return workload.ByName(name) }

// System is one assembled storage system: an engine, the member SSDs, the
// RAID array, the selected GC scheme, and (for SchemeSteering) the
// steering controller and staging space.
type System struct {
	cfg Config

	eng   *sim.Engine
	devs  []*ssd.Device
	disks []raid.Disk
	arr   *raid.Array
	hub   *sched.Hub
	ggc   *sched.GGC
	steer *core.Steering
	spare *ssd.Device // dedicated staging SSD (the RebuildToStaging replacement)

	lat       metrics.Hist
	readLat   metrics.Hist
	writeLat  metrics.Hist
	degLat    metrics.Hist // requests submitted while the array was degraded
	gcLat     metrics.Hist // submitted while >= 1 member collected (not degraded)
	gcRdLat   metrics.Hist // the read-only subset of gcLat (hedged-read target)
	quietLat  metrics.Hist // submitted with no GC and full redundancy
	rec       *metrics.Recorder
	gcGauge   metrics.Gauge // gc_active, sampled once per arrival
	stGauge   metrics.Gauge // staging_free_write_slots (steering only)
	quarGauge metrics.Gauge // quarantined_devices (health monitor only)
	inflGauge metrics.Gauge // inflight, sampled once per arrival
	trace     *obs.Tracer
	reqSeq    int64
	inFlight  int

	// resyncing holds arrivals back while a remounted array runs its
	// journal-on resync (see powerloss.go): the arrival streamer queues
	// them in held, and releaseHeld submits them once the walk completes.
	// arrivalLag, normally zero, is the wait a released request is
	// charged: its response time counts from its arrival, not the release.
	resyncing  bool
	held       []heldArrival
	arrivalLag int64

	requests     sim.FreeList[request]
	deadlineHits int64 // requests cancelled at their deadline
	rejected     int64 // requests refused by admission control

	faults   *fault.Controller // non-nil when Config.Fault is enabled
	scrubber *rebuild.Scrubber // non-nil when Config.ScrubMBps > 0
	health   *health.Monitor   // non-nil when Config.Quarantine
	nrepl    int               // replacement SSDs created so far (device IDs)
	busy     *busyLog          // non-nil when Config.RecordBusy

	// onRequest, when set via ObserveRequests, fires once per submitted
	// request as it settles (completes, hits its deadline, or is rejected).
	onRequest func(seq int64, latNs int64, rejected bool)
}

// New builds and warms up a system. Callers building many systems share
// the warm-up through a Warmup instead.
func New(cfg Config) (*System, error) { return (*Warmup)(nil).New(cfg) }

// New builds and warms up a system, taking each member's warmed flash from
// the memo (see Warmup). A nil memo warms every member in place.
func (w *Warmup) New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		eng:   sim.NewEngine(),
		rec:   metrics.NewRecorder(int64(100*sim.Millisecond), cfg.WindowQuantiles),
		trace: cfg.Trace,
	}
	s.gcGauge = s.rec.GaugeHandle("gc_active")
	// Registered for every scheme (only steering ever sets it) so multi-run
	// CSV exports share one column schema regardless of the scheme mix.
	s.stGauge = s.rec.GaugeHandle("staging_free_write_slots")
	// Same rationale: always in the schema, driven only when the feature is
	// enabled.
	s.quarGauge = s.rec.GaugeHandle("quarantined_devices")
	s.inflGauge = s.rec.GaugeHandle("inflight")
	if cfg.WindowQuantiles {
		// Detailed-series mode also samples engine pressure: queue depth
		// every 64 fired events, folded into the same window grid.
		s.eng.SetProbe(64, func(now sim.Time, pending int) {
			s.rec.SetGauge("engine_pending", int64(now), float64(pending))
		})
	}
	//lint:allow nodeterm root stream: every per-device seed below derives from Config.Seed through it
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Disks; i++ {
		d, err := w.member(i, s.eng, cfg, rng.Int63())
		if err != nil {
			return nil, err
		}
		d.Trace = cfg.Trace
		s.devs = append(s.devs, d)
		s.disks = append(s.disks, d)
	}
	arr, err := raid.NewArray(s.eng, cfg.layout(), s.disks)
	if err != nil {
		return nil, err
	}
	arr.Trace = cfg.Trace
	arr.VerifyReads = cfg.Checksums
	arr.HedgedReads = cfg.HedgedReads
	s.arr = arr
	s.hub = sched.NewHub(s.devs)

	switch cfg.Scheme {
	case SchemeLGC:
		sched.LGC{}.Attach(s.hub)
	case SchemeGGC:
		s.ggc = &sched.GGC{}
		s.ggc.Attach(s.hub)
	case SchemeSteering:
		staging, err := s.buildStaging()
		if err != nil {
			return nil, err
		}
		st, err := core.New(s.eng, arr, staging, core.Config{
			MigrateHotReads: cfg.MigrateHotReads,
			ReclaimMerge:    cfg.ReclaimMerge,
		})
		if err != nil {
			return nil, err
		}
		st.Trace = cfg.Trace
		s.steer = st
		if cfg.DisableGCAwareWrites {
			arr.GCAwareWrites = false
		}
		s.hub.SubscribeEnd(func(now sim.Time, d *ssd.Device) { st.OnDeviceGCEnd(now, d.ID) })
	default:
		return nil, fmt.Errorf("gcsteering: unknown scheme %v", cfg.Scheme)
	}

	if cfg.RecordBusy {
		s.busy = newBusyLog(cfg.Disks)
		s.hub.SubscribeStart(func(now sim.Time, d *ssd.Device) { s.busy.note(BusyGC, d.ID, now, true) })
		s.hub.SubscribeEnd(func(now sim.Time, d *ssd.Device) { s.busy.note(BusyGC, d.ID, now, false) })
	}

	// Robustness wiring: retries with backoff, admission control, and the
	// fail-slow health monitor. All of it is inert (and byte-identical to a
	// run without it) until a fault plan or queue pressure exercises it.
	arr.MaxRetries = cfg.MaxRetries
	arr.RetryBackoff = retryBackoff
	arr.QueueLimit = cfg.QueueLimit
	if cfg.QueueLimit > 0 && s.steer != nil {
		s.steer.Pressure = arr.UnderPressure
	}
	if cfg.Quarantine {
		mon := health.NewMonitor(s.eng, cfg.Disks)
		mon.Trace = cfg.Trace
		mon.Probe = func(now sim.Time, dev int) {
			// One-page probe read; the op hook below judges it synchronously.
			// A failed member rejects the read — the probe then observes
			// nothing and the breaker stays open until the slot is repaired.
			_ = s.devs[dev].Read(now, 0, 1, nil)
		}
		s.hub.SubscribeOp(func(now sim.Time, d *ssd.Device, write bool, pages int, lat, svc sim.Time) {
			// Health is judged on service time, not completion latency: a
			// burst backlog inflates queueing on a healthy member, while a
			// fail-slow fault inflates the op's own channel time.
			mon.Observe(now, d.ID, pages, svc, d.InGC(now))
		})
		mon.OnChange = func(now sim.Time, dev int, open bool) {
			s.quarGauge.Set(int64(now), float64(mon.OpenCount()))
			if s.busy != nil {
				s.busy.note(BusyBreaker, dev, now, open)
			}
			if !open && s.steer != nil {
				// Reinstatement kicks the reclaim drain, like a GC-end event:
				// write-backs deferred while the member was quarantined resume.
				s.steer.OnDeviceGCEnd(now, dev)
			}
		}
		arr.Quarantined = func(now sim.Time, d int) bool { return mon.Quarantined(d) }
		if s.steer != nil {
			s.steer.Unhealthy = func(now sim.Time, disk int) bool { return mon.Quarantined(disk) }
		}
		s.health = mon
	}
	if cfg.PowerLossAtMs > 0 {
		// The cut needs the ground truth of what it interrupted, even when
		// recovery may not use it: every stripe write is journaled, and
		// page-program windows are tracked so in-flight programs can tear.
		arr.Intents = &raid.IntentLog{Journaled: cfg.IntentJournal}
		for _, d := range s.devs {
			d.TrackPrograms = true
		}
	}
	return s, nil
}

// rebuildReservePages is the slice at the top of each member's reserved
// region set aside for parallel reconstruction (it must not collide with
// the staging allocator's slots). It is large enough to hold an equal
// share of a failed member's contents when the reservation allows,
// otherwise capped at two thirds of the reservation.
func (s *System) rebuildReservePages() int {
	reserved := s.cfg.Flash.LogicalPages() - s.cfg.diskPages()
	if s.cfg.Scheme != SchemeSteering || s.cfg.Staging != StagingReserved {
		return 0
	}
	unit := s.cfg.unitPages()
	need := (s.cfg.diskPages()/(s.cfg.Disks-1)/unit + 1) * unit
	if max := reserved * 2 / 3; need > max {
		need = max
	}
	return need
}

// stagingReadFrac is the share of the staging space that holds hot-read
// copies; redirected write data gets the rest.
const stagingReadFrac = 0.3

// retryBackoff is the delay before the first retry of a transient read
// error (Config.MaxRetries); it doubles per attempt.
const retryBackoff = 200 * sim.Microsecond

// buildStaging assembles the configured staging space.
func (s *System) buildStaging() (core.Staging, error) {
	switch s.cfg.Staging {
	case StagingReserved:
		reserved := s.cfg.Flash.LogicalPages() - s.cfg.diskPages()
		reserved -= s.rebuildReservePages()
		return core.NewReservedStaging(s.disks, s.cfg.diskPages(), reserved, stagingReadFrac)
	case StagingDedicated:
		spare, err := s.newSpare()
		if err != nil {
			return nil, err
		}
		return core.NewDedicatedStaging(spare, stagingReadFrac)
	default:
		return nil, fmt.Errorf("gcsteering: unknown staging kind %v", s.cfg.Staging)
	}
}

// newSpare creates the dedicated staging SSD.
func (s *System) newSpare() (*ssd.Device, error) {
	spare, err := ssd.New(s.cfg.Disks, s.eng, s.cfg.deviceConfig())
	if err != nil {
		return nil, err
	}
	spare.Trace = s.trace
	s.spare = spare
	return spare, nil
}

// GenerateWorkload synthesizes up to maxRequests of the named Table I
// profile sized to this system's capacity: Config.GenerateWorkload on the
// system's configuration.
func (s *System) GenerateWorkload(profile string, maxRequests int) (Trace, error) {
	return s.cfg.GenerateWorkload(profile, maxRequests)
}

// submit issues one request to the array and records its response time.
// It is a gcsvet hot-path root: it runs once per replayed request (the
// arrival cursor calls it from inside Engine.Run), so hotalloc holds it
// and everything it reaches allocation-free.
//
//gcsvet:hot
func (s *System) submit(now sim.Time, r Record) {
	page, pages := r.PageView(s.cfg.Flash.PageSize)
	total := s.arr.Layout().LogicalPages()
	if pages > total {
		pages = total
	}
	if page+pages > total {
		page = total - pages
	}
	s.inFlight++
	// Classify the request's phase at arrival (degraded wins over GC) and
	// sample the phase-describing gauges on the same window grid.
	degraded := s.arr.Degraded()
	n := 0
	for _, d := range s.devs {
		if d.InGC(now) {
			n++
		}
	}
	inGC := n > 0
	s.gcGauge.Set(int64(now), float64(n))
	if s.steer != nil {
		s.stGauge.Set(int64(now), float64(s.steer.Staging().FreeWriteSlots()))
	}
	if s.cfg.QueueLimit > 0 {
		s.inflGauge.Set(int64(now), float64(s.inFlight))
	}
	seq := s.reqSeq
	s.reqSeq++
	if s.trace.Enabled() {
		s.trace.Emit(now, obs.Event{Kind: obs.KArrival, Dev: -1,
			Page: int64(page), Pages: int32(pages),
			Aux: boolInt(r.Write), Aux2: seq})
	}
	q, fresh := s.requests.Get()
	if fresh {
		q.s = s
		q.complete, q.expire, q.recycle = q.finish, q.timeout, q.free
	}
	q.arrival, q.seq, q.lag, q.page, q.pages = now, seq, s.arrivalLag, page, pages
	q.isWrite, q.degraded, q.inGC, q.settled = r.Write, degraded, inGC, false
	q.tok = raid.Cancel{}
	var tok *raid.Cancel
	refs := 1 // the completion, and the deadline timer when armed
	if deadline := sim.Time(s.cfg.DeadlineUs * float64(sim.Microsecond)); deadline > 0 {
		tok, refs, q.deadline = &q.tok, 2, deadline
		s.eng.At(now+deadline, q.expire)
	}
	q.release = s.eng.Join(refs, q.recycle)
	var err error
	if r.Write {
		err = s.arr.WriteCancelable(now, page, pages, tok, q.complete)
	} else {
		err = s.arr.ReadCancelable(now, page, pages, tok, q.complete)
	}
	if errors.Is(err, raid.ErrOverloaded) {
		// Admission control shed this request: no sub-ops were issued and
		// its completion will never fire. Count it, don't record a
		// response time.
		q.settled = true
		q.release(now) // the completion's reference
		s.inFlight--
		s.rejected++
		if s.onRequest != nil {
			s.onRequest(seq, 0, true)
		}
		if s.trace.Enabled() {
			s.trace.Emit(now, obs.Event{Kind: obs.KReject, Dev: -1,
				Page: int64(page), Pages: int32(pages),
				Aux: int64(s.arr.Inflight()), Aux2: seq})
		}
		return
	}
	if err != nil {
		// The range was clamped to the array above, so an error here is an
		// internal invariant violation, not bad trace input.
		panic(err)
	}
}

// request is one submitted request's slot: what settling it needs, the
// token its sub-ops read, and its callbacks, bound once per slot. The
// settled flag arbitrates between the completion and the deadline timer
// (the first settles, the other is a no-op); release joins the two, so the
// slot is recycled only after both have fired and neither ever reaches a
// reused slot.
type request struct {
	s                       *System
	arrival, deadline       sim.Time
	seq, lag                int64
	page, pages             int
	isWrite, degraded, inGC bool
	settled                 bool
	tok                     raid.Cancel
	release                 func(now sim.Time)

	complete, expire, recycle func(now sim.Time) // bound once per slot
}

// finish is the request's completion.
func (q *request) finish(t sim.Time) {
	if !q.settled {
		d := int64(t-q.arrival) + q.lag
		if q.s.trace.Enabled() {
			q.s.trace.Emit(t, obs.Event{Kind: obs.KComplete, Dev: -1, Page: -1,
				Aux: d, Aux2: q.seq})
		}
		q.settle(d)
	}
	q.release(t)
}

// timeout is the deadline timer: an unsettled request is cancelled, and
// the deadline is its user-visible response time (the requester gave up).
func (q *request) timeout(t sim.Time) {
	if s := q.s; !q.settled {
		q.tok.Cancel() // queued sub-ops (backed-off retries, RMW phases) absorb
		s.deadlineHits++
		if s.trace.Enabled() {
			s.trace.Emit(t, obs.Event{Kind: obs.KDeadlineExceeded, Dev: -1,
				Page: int64(q.page), Pages: int32(q.pages),
				Aux: int64(q.deadline), Aux2: q.seq})
		}
		q.settle(int64(q.deadline) + q.lag)
	}
	q.release(t)
}

func (q *request) free(sim.Time) { q.s.requests.Put(q) }

// settle records the request's response time d (ns) against the phase it
// was classified into at arrival, in the time-series window of its
// arrival.
func (q *request) settle(d int64) {
	s := q.s
	q.settled = true
	s.inFlight--
	if s.onRequest != nil {
		s.onRequest(q.seq, d, false)
	}
	s.lat.Observe(d)
	s.rec.Observe(int64(q.arrival), d)
	switch {
	case q.degraded:
		s.degLat.Observe(d)
	case q.inGC:
		s.gcLat.Observe(d)
		if !q.isWrite {
			s.gcRdLat.Observe(d)
		}
	default:
		s.quietLat.Observe(d)
	}
	if q.isWrite {
		s.writeLat.Observe(d)
	} else {
		s.readLat.Observe(d)
	}
}

// startScrub launches the patrol scrubber when the config enables it
// (Config.ScrubMBps > 0). It runs alongside the replayed workload, paced by
// its bandwidth cap, and finishes after one full pass.
func (s *System) startScrub() error {
	if s.cfg.ScrubMBps <= 0 {
		return nil
	}
	sc, err := rebuild.NewScrub(s.eng, s.arr, s.cfg.ScrubMBps, s.cfg.Flash.PageSize)
	if err != nil {
		return err
	}
	sc.Trace = s.trace
	if s.cfg.QueueLimit > 0 {
		sc.Pressure = s.arr.UnderPressure
	}
	s.scrubber = sc
	sc.Start(s.eng.Now())
	return nil
}

// Replay drives the trace through the system open-loop (arrivals at trace
// timestamps) and runs to quiescence, returning the measured results. It
// is the one way to run a trace; the Config decides what else happens
// during the run:
//
//   - Config.Fault, when enabled, is executed alongside the workload:
//     scheduled whole-device failures, latent sector errors, latency
//     spikes, and — when the plan caps a rebuild bandwidth — automatic
//     repair-and-rebuild into the plan's RebuildTarget. Results.Fault
//     carries the reliability measurements.
//   - Config.ScrubMBps runs the patrol scrubber.
//   - Config.PowerLossAtMs cuts the power mid-trace; the call then
//     remounts, resyncs and serves the rest of the trace (see powerloss.go)
//     and Results.Crash carries the crash and recovery accounting.
//
// Replay may be called once per System; build a fresh System per run.
func (s *System) Replay(tr Trace) (*Results, error) {
	if err := trace.Validate(tr); err != nil {
		return nil, err
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("gcsteering: empty trace")
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	s.scheduleArrivals(tr)
	if s.cfg.PowerLossAtMs > 0 {
		return s.powerLoss(tr)
	}
	s.eng.Run()
	return s.finish()
}

// start arms what the config runs alongside the workload: the fault plan
// and the patrol scrubber.
func (s *System) start() error {
	if s.cfg.Fault.Enabled() {
		if err := s.armFaults(); err != nil {
			return err
		}
	}
	return s.startScrub()
}

// finish flushes the staging space after the engine drained, closes the
// fault books, and snapshots the results.
func (s *System) finish() (*Results, error) {
	s.drainSteering()
	if s.faults != nil {
		s.faults.Finish(s.eng.Now())
		if err := s.faults.Err(); err != nil {
			return nil, err
		}
	}
	return s.results(), nil
}

// scheduleArrivals streams the trace into the engine one arrival at a
// time (scheduling all arrivals up front would bloat the event queue). A
// single closure advances a captured cursor, rather than one closure per
// arrival; the submit-then-schedule order matches the old recursive shape,
// so event sequence numbers — and therefore traces — are unchanged. While
// a remounted array resyncs with the journal on, arrivals are held back
// instead of submitted (see releaseHeld).
//
// Hot root: the cursor closure re-fires once per trace request, so
// everything it reaches is replay steady-state. hotalloc enforcing this
// is what keeps the "single closure" promise above from regressing.
//
//gcsvet:hot
func (s *System) scheduleArrivals(tr Trace) {
	if len(tr) == 0 {
		return
	}
	base := s.eng.Now()
	i := 0
	var step func(now sim.Time)
	step = func(now sim.Time) { //lint:allow hotalloc one cursor closure per replay, re-armed per arrival rather than reallocated
		if s.resyncing {
			s.held = append(s.held, heldArrival{at: now, r: tr[i]})
		} else {
			s.submit(now, tr[i])
		}
		if i+1 < len(tr) {
			i++
			s.eng.At(base+tr[i].Timestamp, step)
		}
	}
	s.eng.At(base+tr[0].Timestamp, step)
}

// releaseHeld ends the resync hold: arrivals held back during the walk are
// submitted now, each charged its wait.
func (s *System) releaseHeld(now sim.Time) {
	s.resyncing = false
	for _, h := range s.held {
		s.arrivalLag = int64(now - h.at)
		s.submit(now, h.r)
	}
	s.arrivalLag = 0
	s.held = nil
}

// drainSteering flushes redirected write data back after the run so the
// system ends consistent.
func (s *System) drainSteering() {
	if s.steer == nil {
		return
	}
	s.steer.DrainAll(s.eng.Now())
	s.eng.Run()
}

// armFaults builds, wires and starts the fault controller for the
// configured plan.
func (s *System) armFaults() error {
	ctl, err := fault.NewController(s.eng, s.arr, s.devs, s.cfg.Fault.plan(s.cfg.Seed), s.cfg.Flash.PageSize)
	if err != nil {
		return err
	}
	ctl.Trace = s.trace
	ctl.SinkFor = s.faultSink
	ctl.OnFail = func(now sim.Time, disk int) {
		if s.busy != nil {
			// The busy window opens at the loss, not the rebuild start: the
			// array serves degraded reads for the whole failure-to-repair
			// span, which is exactly the window cluster routing must avoid.
			s.busy.note(BusyRebuild, disk, now, true)
		}
		if s.health != nil {
			// A dead disk is the array's problem, not the breaker's: clear
			// any open quarantine so reinstatement probes stop.
			s.health.Reset(now, disk)
		}
		if s.steer == nil {
			return
		}
		s.steer.SetFailedHome(disk)
		if s.cfg.Staging == StagingReserved {
			// The failed member's staged copies are gone with it.
			s.steer.Staging().SetUnavailable(disk)
			s.steer.DropStagedOn(int32(disk))
		}
	}
	ctl.Hold = func(now sim.Time, disk int) bool {
		// §III-D case ②: when the staging space becomes the replacement,
		// redirected write data is reclaimed to its home disks before the
		// reconstruction starts.
		if s.steer == nil || s.cfg.Fault.RebuildTarget != RebuildToStaging || !s.steer.Draining() {
			return false
		}
		s.steer.DrainAll(now)
		return true
	}
	ctl.OnRebuildStart = func(now sim.Time, disk int) {
		if s.steer != nil {
			s.steer.SetRebuilding(now, true)
		}
	}
	ctl.OnRepair = func(now sim.Time, disk int) {
		if s.busy != nil {
			s.busy.note(BusyRebuild, disk, now, false)
		}
		if s.steer != nil {
			if ds, ok := s.steer.Staging().(*core.DedicatedStaging); ok && s.spareJoined() {
				// The staging SSD is now a member: no new slots on it.
				ds.Retire()
			}
			s.steer.Staging().SetUnavailable(-1)
			s.steer.SetFailedHome(-1)
			s.steer.SetRebuilding(now, false)
		}
	}
	s.faults = ctl
	ctl.Start()
	return nil
}

// faultSink builds the rebuild sink for the plan's RebuildTarget plus the
// replacement disk installed once that rebuild completes. RebuildToSpare
// gets a fresh replacement SSD per failure, so repeated failures rebuild
// onto clean devices. RebuildToStaging under dedicated staging rebuilds
// onto the staging SSD once; later failures find no staging space left
// and take a fresh replacement.
func (s *System) faultSink(now sim.Time, failDisk int) (rebuild.Sink, raid.Disk, error) {
	target := s.cfg.Fault.RebuildTarget
	if target == RebuildToStaging && s.cfg.Staging == StagingDedicated {
		if !s.spareJoined() {
			return &rebuild.SpareSink{Disk: s.spare}, s.spare, nil // the staging SSD is the replacement
		}
		target = RebuildToSpare
	}
	repl, err := s.newReplacement()
	if err != nil {
		return nil, nil, err
	}
	switch target {
	case RebuildToSpare:
		return &rebuild.SpareSink{Disk: repl}, repl, nil
	case RebuildToStaging:
		var survivors []raid.Disk
		for d, disk := range s.disks {
			if s.arr.Alive(d) && d != failDisk {
				survivors = append(survivors, disk)
			}
		}
		reserve := s.rebuildReservePages()
		if reserve < s.arr.Layout().UnitPages {
			return nil, nil, fmt.Errorf("gcsteering: no reserved space for parallel rebuild (configure reserved staging with a large enough ReservedFrac)")
		}
		base := s.cfg.Flash.LogicalPages() - reserve
		sink, err := rebuild.NewReservedSink(survivors, base, reserve)
		if err != nil {
			return nil, nil, err
		}
		// The reconstruction lands in the survivors' reserved space; the
		// fresh replacement fills the failed slot so the array is redundant
		// again as soon as the parallel writes finish (the WOV endpoint).
		// Migrating the data back onto the replacement happens off the
		// critical path and is not modelled.
		return sink, repl, nil
	default:
		return nil, nil, fmt.Errorf("gcsteering: unknown rebuild target %v", target)
	}
}

// spareJoined reports whether the dedicated staging SSD has replaced a
// failed member.
func (s *System) spareJoined() bool {
	for _, d := range s.arr.Disks() {
		if d == raid.Disk(s.spare) {
			return true
		}
	}
	return false
}

// newReplacement creates a fresh SSD to take over a failed slot.
func (s *System) newReplacement() (*ssd.Device, error) {
	// IDs continue past the members and the optional dedicated spare.
	id := s.cfg.Disks + 1 + s.nrepl
	repl, err := ssd.New(id, s.eng, s.cfg.deviceConfig())
	if err != nil {
		return nil, err
	}
	repl.Trace = s.trace
	s.nrepl++
	return repl, nil
}

// Now returns the engine clock (mainly for tests and custom drivers).
func (s *System) Now() Time { return s.eng.Now() }

// Events returns how many engine events have fired so far — the
// simulator's unit of work, which cmd/gcsperf divides by wall time to
// report events/sec.
func (s *System) Events() uint64 { return s.eng.Fired() }

// ObserveRequests installs fn, invoked once per submitted request as it
// settles: seq is the request's submission index (0-based, in trace
// order), latNs the user-visible response time in nanoseconds (the
// deadline for deadline-cancelled requests), and rejected marks requests
// shed by admission control (their latNs is 0). The cluster layer uses it
// to attribute shard latencies back to tenants. Under Config.PowerLossAtMs
// the hook spans the cut: requests served after the remount continue the
// pre-cut indices, and requests lost in flight at the cut never settle (so
// never fire). Call before Replay; a nil fn removes the hook.
func (s *System) ObserveRequests(fn func(seq int64, latNs int64, rejected bool)) {
	s.onRequest = fn
}

// busyLog accumulates BusyInterval windows from the GC hub, the health
// monitor, and the rebuild lifecycle. It is driven synchronously by the
// single-threaded engine, so interval order is deterministic. Opening an
// already-open (kind, dev) slot or closing a closed one is a no-op, which
// lets the failure and rebuild-start hooks both assert the same window.
type busyLog struct {
	intervals []BusyInterval
	open      []BusyInterval // End unset while the window is open
}

func newBusyLog(disks int) *busyLog {
	return &busyLog{open: make([]BusyInterval, 0, disks+1)}
}

// note opens (active=true) or closes a busy window for (kind, dev).
func (b *busyLog) note(kind BusyKind, dev int, now sim.Time, active bool) {
	for i, w := range b.open {
		if w.Kind != kind || w.Dev != dev {
			continue
		}
		if active {
			return // already open
		}
		w.End = now
		b.intervals = append(b.intervals, w)
		b.open = append(b.open[:i], b.open[i+1:]...)
		return
	}
	if active {
		b.open = append(b.open, BusyInterval{Kind: kind, Dev: dev, Start: now})
	}
}

// finish closes every still-open window at the run end. Idempotent.
func (b *busyLog) finish(now sim.Time) {
	for _, w := range b.open {
		w.End = now
		b.intervals = append(b.intervals, w)
	}
	b.open = b.open[:0]
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
