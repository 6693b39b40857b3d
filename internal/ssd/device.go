// Package ssd provides the timed model of one flash SSD: it turns the
// logical decisions of the FTL (internal/flash) into occupancy of parallel
// flash channels on the simulation clock, including the garbage-collection
// episodes whose interference with user I/O is the subject of the paper.
//
// The queueing model is deliberately simple and deterministic: each channel
// is a FIFO server with a next-free timestamp. An operation submitted at
// time t on channel c starts at max(t, nextFree[c]) and holds the channel
// for its service time. Garbage collection injects its page moves and block
// erases into the same queues, so user requests that arrive while a device
// is collecting wait behind the GC work — exactly the contention
// GC-Steering removes by steering requests elsewhere.
package ssd

import (
	"fmt"
	"math/rand"

	"gcsteering/internal/flash"
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

// LatencyModel holds the flash timing parameters. Defaults follow the
// paper's §I: an erase is an order of magnitude slower than a program,
// which is an order of magnitude slower than a read.
type LatencyModel struct {
	PageRead    sim.Time // flash array read of one page
	PageProgram sim.Time // program of one page
	BlockErase  sim.Time // erase of one block
	BusTransfer sim.Time // channel bus transfer of one page
}

// DefaultLatency returns the default flash timing.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		PageRead:    50 * sim.Microsecond,
		PageProgram: 500 * sim.Microsecond,
		BlockErase:  3 * sim.Millisecond,
		BusTransfer: 10 * sim.Microsecond,
	}
}

// Config configures one device.
type Config struct {
	Geometry flash.Geometry
	Latency  LatencyModel
	// GCLowWater triggers garbage collection when free blocks drop to or
	// below it. GCHighWater is the free-block target an episode restores.
	// Small (high-low) gaps give frequent short GC pauses; large gaps give
	// rare long pauses.
	GCLowWater  int
	GCHighWater int
	// ForcedGCVictims is the minimum number of blocks a ForceGC episode
	// collects even when free space is plentiful (GGC forces devices to
	// collect "no matter how much free space is available in them").
	// Defaults to 2 when zero.
	ForcedGCVictims int
	// GCOverhead is the fixed cost of entering a GC episode (FTL metadata
	// scans, internal pipeline drain) charged to every channel at episode
	// start, independent of how much data the episode moves. It is what
	// makes frequent forced invocations expensive.
	GCOverhead sim.Time
}

// DefaultConfig returns a device configuration with DefaultGeometry,
// DefaultLatency, and watermarks sized to the channel count (one spare
// block per channel low, three per channel high).
func DefaultConfig() Config {
	g := flash.DefaultGeometry()
	return Config{
		Geometry:    g,
		Latency:     DefaultLatency(),
		GCLowWater:  g.Channels,
		GCHighWater: 2 * g.Channels,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.GCLowWater <= 0 || c.GCHighWater <= c.GCLowWater {
		return fmt.Errorf("ssd: watermarks low=%d high=%d invalid", c.GCLowWater, c.GCHighWater)
	}
	if c.Latency.PageRead <= 0 || c.Latency.PageProgram <= 0 || c.Latency.BlockErase <= 0 {
		return fmt.Errorf("ssd: latencies must be positive: %+v", c.Latency)
	}
	return nil
}

// Stats aggregates a device's cumulative activity.
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	PagesRead    int64
	PagesWritten int64
	// GCEpisodes counts distinct collection episodes (a contiguous in-GC
	// window). GCExtensions counts additional collection work folded into
	// an episode already running — writes arriving mid-episode can drain
	// the free pool below the low watermark again; that extends the window
	// rather than starting (and re-announcing) a new episode.
	GCEpisodes   int64
	GCExtensions int64
	GCPagesMoved int64
	Erases       int64
	ForcedGCs    int64
	BusyTime     sim.Time // total channel occupancy (sum over channels)
	GCBusyTime   sim.Time // channel occupancy consumed by GC work
	GCWallTime   sim.Time // wall-clock time the device spent in the GC state
}

// FaultHook lets a fault-injection layer perturb the device op path.
// internal/fault implements it; a nil hook means the device is healthy.
type FaultHook interface {
	// OpDelay returns extra service time charged to the channel occupancy
	// of one page op at now. It models fail-slow devices and transient
	// per-channel latency spikes; zero means no perturbation.
	OpDelay(now sim.Time, channel int, write bool) sim.Time
	// ReadError reports whether a host read of [lpn, lpn+pages) surfaces a
	// latent sector error (unrecoverable read error) at now.
	ReadError(now sim.Time, lpn, pages int) bool
}

// ScrubHook is the optional FaultHook extension carrying persistent media
// state: latent sector errors and silent corruption that stay put until an
// explicit repair rewrites the range from redundancy. The patrol scrubber
// and the checksum-verifying read path probe these; a hook that does not
// implement it simply has no persistent defects.
type ScrubHook interface {
	// LatentError reports whether [lpn, lpn+pages) holds a persistent
	// latent sector error. Unlike FaultHook.ReadError it must not consume
	// RNG state: probing is free of side effects.
	LatentError(lpn, pages int) bool
	// VerifyError reports whether checksum verification of [lpn, lpn+pages)
	// would fail — the range holds silently corrupted data.
	VerifyError(now sim.Time, lpn, pages int) bool
	// Repair clears persistent defects in [lpn, lpn+pages) and reports how
	// many latent and corrupt pages were cleared.
	Repair(lpn, pages int) (latent, corrupt int)
}

// SlowHook is the optional FaultHook extension exposing whether the device
// is currently inside a fail-slow window — the array's signal (alongside
// InGC) for hedging reads with a parity reconstruction.
type SlowHook interface {
	SlowAt(now sim.Time) bool
}

// TransientHook is the optional FaultHook extension for transient read
// errors: each attempt draws independently, so — unlike the persistent
// latent errors behind ReadError's URE path — a bounded retry of the same
// extent succeeds with high probability.
type TransientHook interface {
	TransientReadError(now sim.Time, lpn, pages int) bool
}

// Device is one simulated SSD attached to a simulation engine.
type Device struct {
	// ID identifies the device inside an array; used only for reporting.
	ID int

	cfg  Config
	eng  *sim.Engine
	ftl  *flash.FTL
	free []sim.Time // per-channel next-free instant

	gcEndAt sim.Time       // device is "in GC" while Now < gcEndAt
	gcEnd   func(sim.Time) // gcEnded, bound once
	stats   Stats

	// OnGCStart and OnGCEnd, when non-nil, are invoked as GC episodes begin
	// and finish. The GGC policy and the GC-Steering redirector both hook
	// these. OnGCEnd fires via the event queue at the episode's end time.
	OnGCStart func(now sim.Time, d *Device)
	OnGCEnd   func(now sim.Time, d *Device)

	// OnOp, when non-nil, observes every host read and write as it is
	// issued. latency is the op's projected completion latency (channel
	// queueing included — what the client will experience); service is the
	// op's own channel time (page access, bus transfer, and any injected
	// fault delay, queueing excluded) — the unconfounded device-health
	// signal, since a backlog from bursty load inflates latency on a
	// perfectly healthy member. The call is synchronous with the issue and
	// schedules nothing, so an observer such as the health monitor costs no
	// engine events. GC-internal page moves are not reported.
	OnOp func(now sim.Time, d *Device, write bool, pages int, latency, service sim.Time)

	// Fault, when non-nil, perturbs the user op path (extra latency) and
	// decides latent sector errors. GC-internal page moves are not
	// perturbed: a slow or error-prone device hurts exactly the traffic the
	// array can observe.
	Fault FaultHook

	// Trace, when non-nil, receives GC lifecycle events (start, extend,
	// end). A nil tracer costs one nil check per episode.
	Trace *obs.Tracer

	// TrackPrograms records the channel-occupancy window of every host page
	// program so a power-loss cut can identify pages whose program was
	// interrupted mid-flight (a torn page persists garbage that fails its
	// CRC32-C on read). Off it costs one branch per written page; crash
	// runs enable it before replay.
	TrackPrograms bool
	programs      []programWindow
}

// programWindow is one tracked host page program: the logical page and the
// channel-occupancy interval during which a power cut tears it.
type programWindow struct {
	lpn        int
	start, end sim.Time
}

// New creates a device bound to engine eng.
func New(id int, eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ftl, err := flash.NewFTL(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	d := &Device{
		ID:   id,
		cfg:  cfg,
		eng:  eng,
		ftl:  ftl,
		free: make([]sim.Time, cfg.Geometry.Channels),
	}
	d.gcEnd = d.gcEnded
	return d, nil
}

// Clone returns a device with the receiver's configuration and a deep copy
// of its flash state, bound to engine eng under id: its channels are idle,
// its statistics and GC window zeroed, and it carries no hooks, fault hook
// or tracer. The receiver only lends its flash image — it may be a warm-up
// template never attached to an engine — and is left untouched.
func (d *Device) Clone(id int, eng *sim.Engine) *Device {
	c := &Device{
		ID:   id,
		cfg:  d.cfg,
		eng:  eng,
		ftl:  d.ftl.Clone(),
		free: make([]sim.Time, len(d.free)),
	}
	c.gcEnd = c.gcEnded
	return c
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// LogicalPages is the host-visible page count.
func (d *Device) LogicalPages() int { return d.ftl.LogicalPages() }

// PageSize is the page size in bytes.
func (d *Device) PageSize() int { return d.cfg.Geometry.PageSize }

// Stats returns a snapshot of the cumulative statistics. Erase and GC page
// counts come from the FTL so they include prefill-time collections only if
// timed GC ran (prefill uses untimed logical collection and is excluded).
func (d *Device) Stats() Stats {
	s := d.stats
	return s
}

// WriteAmplification reports the FTL's cumulative write amplification.
func (d *Device) WriteAmplification() float64 { return d.ftl.WriteAmplification() }

// InGC reports whether a garbage-collection episode is in progress at now.
func (d *Device) InGC(now sim.Time) bool { return now < d.gcEndAt }

// GCEndsAt returns the end instant of the current episode (zero if idle).
func (d *Device) GCEndsAt() sim.Time { return d.gcEndAt }

// occupy reserves channel c for duration dur starting no earlier than now,
// returning the completion instant.
func (d *Device) occupy(now sim.Time, c int, dur sim.Time) sim.Time {
	start := now
	if d.free[c] > start {
		start = d.free[c]
	}
	end := start + dur
	d.free[c] = end
	d.stats.BusyTime += dur
	return end
}

// faultDelay returns the fault hook's extra service time for one page op.
func (d *Device) faultDelay(now sim.Time, channel int, write bool) sim.Time {
	if d.Fault == nil {
		return 0
	}
	return d.Fault.OpDelay(now, channel, write)
}

// ReadError reports whether reading [lpn, lpn+pages) suffers an
// unrecoverable read error at now. It implements the RAID engine's Faulty
// interface; without a fault hook the device never errors.
func (d *Device) ReadError(now sim.Time, lpn, pages int) bool {
	return d.Fault != nil && d.Fault.ReadError(now, lpn, pages)
}

// VerifyError reports whether checksum verification of [lpn, lpn+pages)
// would fail at now — silent corruption a plain read cannot see. It
// implements the RAID engine's Verifier interface; false without a
// scrub-capable fault hook.
func (d *Device) VerifyError(now sim.Time, lpn, pages int) bool {
	h, ok := d.Fault.(ScrubHook)
	return ok && h.VerifyError(now, lpn, pages)
}

// LatentError reports, without consuming RNG state, whether [lpn,
// lpn+pages) holds a persistent latent sector error.
func (d *Device) LatentError(lpn, pages int) bool {
	h, ok := d.Fault.(ScrubHook)
	return ok && h.LatentError(lpn, pages)
}

// RepairPages clears persistent defects in [lpn, lpn+pages) — the media
// effect of rewriting the range from redundancy — and reports how many
// latent and corrupt pages were cleared.
func (d *Device) RepairPages(lpn, pages int) (latent, corrupt int) {
	if h, ok := d.Fault.(ScrubHook); ok {
		return h.Repair(lpn, pages)
	}
	return 0, 0
}

// Slow reports whether the device is inside a fail-slow window at now. It
// implements the RAID engine's SlowDisk interface; false without a
// slowdown-aware fault hook.
func (d *Device) Slow(now sim.Time) bool {
	h, ok := d.Fault.(SlowHook)
	return ok && h.SlowAt(now)
}

// TransientReadError reports whether this read attempt of [lpn, lpn+pages)
// fails transiently at now. Each call is an independent draw — retrying the
// same extent may succeed. It implements the RAID engine's TransientFaulty
// interface; false without a transient-aware fault hook.
func (d *Device) TransientReadError(now sim.Time, lpn, pages int) bool {
	h, ok := d.Fault.(TransientHook)
	return ok && h.TransientReadError(now, lpn, pages)
}

// Read services a read of pages logical pages starting at lpn. done, if
// non-nil, fires when the last page is delivered.
func (d *Device) Read(now sim.Time, lpn, pages int, done func(now sim.Time)) error {
	if err := d.checkRange(lpn, pages); err != nil {
		return err
	}
	d.stats.ReadOps++
	d.stats.PagesRead += int64(pages)
	finish := now
	var service sim.Time
	// A never-written page still costs one read, on channel
	// lpn % Channels; blank tracks that channel page by page.
	blank := lpn % len(d.free)
	for i := 0; i < pages; i++ {
		c := blank
		if ppn := d.ftl.Lookup(lpn + i); ppn >= 0 {
			c = d.ftl.PageChannel(ppn)
		}
		if blank++; blank == len(d.free) {
			blank = 0
		}
		dur := d.cfg.Latency.PageRead + d.cfg.Latency.BusTransfer + d.faultDelay(now, c, false)
		service += dur
		end := d.occupy(now, c, dur)
		if end > finish {
			finish = end
		}
	}
	if done != nil {
		d.eng.At(finish, done)
	}
	if d.OnOp != nil {
		d.OnOp(now, d, false, pages, finish-now, service)
	}
	return nil
}

// Write services a write of pages logical pages starting at lpn. done, if
// non-nil, fires when the last page is durable. Writes may trigger a
// garbage-collection episode whose channel time lands after this request's
// own programs.
func (d *Device) Write(now sim.Time, lpn, pages int, done func(now sim.Time)) error {
	if err := d.checkRange(lpn, pages); err != nil {
		return err
	}
	d.stats.WriteOps++
	d.stats.PagesWritten += int64(pages)
	finish := now
	var service sim.Time
	for i := 0; i < pages; i++ {
		ppn := d.ftl.Write(lpn + i)
		c := d.ftl.PageChannel(ppn)
		dur := d.cfg.Latency.PageProgram + d.cfg.Latency.BusTransfer + d.faultDelay(now, c, true)
		service += dur
		end := d.occupy(now, c, dur)
		if d.TrackPrograms {
			d.trackProgram(now, lpn+i, end-dur, end)
		}
		if end > finish {
			finish = end
		}
	}
	if done != nil {
		d.eng.At(finish, done)
	}
	if d.OnOp != nil {
		d.OnOp(now, d, true, pages, finish-now, service)
	}
	if d.ftl.NeedGC(d.cfg.GCLowWater) {
		d.startGC(now, d.cfg.GCHighWater, 0, false)
	}
	return nil
}

// Trim drops mappings without consuming channel time (a metadata op).
func (d *Device) Trim(lpn, pages int) error {
	if err := d.checkRange(lpn, pages); err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		d.ftl.Trim(lpn + i)
	}
	return nil
}

// ForceGC starts a garbage-collection episode even when free space is above
// the low watermark. The GGC policy invokes it on every device of an array
// whenever any one device begins collecting. It is a no-op when an episode
// is already running or when no block has any invalid page.
func (d *Device) ForceGC(now sim.Time) {
	if d.InGC(now) {
		return
	}
	min := d.cfg.ForcedGCVictims
	if min <= 0 {
		min = 2
	}
	// A forced episode collects a fixed amount of garbage and stops: it
	// does not refill the free pool to the high watermark, so the device's
	// own natural GC schedule is unchanged. Under GC-frequent workloads
	// every device's natural trigger launches a global round, which is what
	// makes GGC's total GC count balloon (the paper's Fig. 7b).
	d.startGC(now, 0, min, true)
}

// startGC plans a collection episode and charges its time to the channels.
// It may be called while an episode is already running (writes arriving
// during a long episode can drain the free pool below the low watermark
// again); the new work then merely extends the in-GC window: it is counted
// as a GCExtension rather than a fresh GCEpisode, and OnGCStart is NOT
// re-fired — under GGC a re-fire would launch a redundant global forced
// round for what is physically the same episode.
//
// Every op of the episode is issued at now, so each channel's GC reads,
// programs and erases queue back to back from max(now, free[c]): one
// reservation of their summed service time leaves the channel, the busy
// time and the episode end exactly where one reservation per op would.
func (d *Device) startGC(now sim.Time, targetFree, minVictims int, forced bool) {
	plan := d.ftl.CollectUntil(targetFree, minVictims)
	if plan.Empty() {
		return
	}
	extend := d.InGC(now)
	busyBefore := d.stats.BusyTime
	endAll := now
	if d.cfg.GCOverhead > 0 {
		for c := 0; c < d.cfg.Geometry.Channels; c++ {
			if end := d.occupy(now, c, d.cfg.GCOverhead); end > endAll {
				endAll = end
			}
		}
	}
	lat := d.cfg.Latency
	read, program := lat.PageRead+lat.BusTransfer, lat.PageProgram+lat.BusTransfer
	for c, reads := range plan.ChannelReads {
		programs, erases := plan.ChannelPrograms[c], plan.ChannelErases[c]
		if reads == 0 && programs == 0 && erases == 0 {
			continue
		}
		dur := sim.Time(reads)*read + sim.Time(programs)*program + sim.Time(erases)*lat.BlockErase
		if end := d.occupy(now, c, dur); end > endAll {
			endAll = end
		}
	}
	d.stats.GCBusyTime += d.stats.BusyTime - busyBefore
	if wallStart := d.gcEndAt; endAll > wallStart {
		if wallStart < now {
			wallStart = now
		}
		d.stats.GCWallTime += endAll - wallStart
	}
	prevEnd := d.gcEndAt
	advanced := endAll > prevEnd
	if advanced {
		d.gcEndAt = endAll
	}
	d.stats.GCPagesMoved += int64(plan.PagesMoved)
	d.stats.Erases += int64(plan.Erases)
	if extend {
		// Same physical episode, more work: count it as an extension and do
		// NOT re-fire OnGCStart — under GGC that hook fans out a global
		// forced round, and re-firing it mid-episode would launch a
		// redundant one.
		d.stats.GCExtensions++
		if d.Trace.Enabled() {
			d.Trace.Emit(now, obs.Event{Kind: obs.KGCExtend, Dev: int32(d.ID),
				Page: -1, Pages: int32(plan.PagesMoved),
				Aux: int64(endAll), Aux2: boolInt(forced)})
		}
	} else {
		d.stats.GCEpisodes++
		if forced {
			d.stats.ForcedGCs++
		}
		if d.Trace.Enabled() {
			d.Trace.Emit(now, obs.Event{Kind: obs.KGCStart, Dev: int32(d.ID),
				Page: -1, Pages: int32(plan.PagesMoved),
				Aux: int64(endAll), Aux2: boolInt(forced)})
		}
		if d.OnGCStart != nil {
			d.OnGCStart(now, d)
		}
	}
	if advanced && (d.OnGCEnd != nil || d.Trace.Enabled()) {
		d.eng.At(endAll, d.gcEnd)
	}
}

// gcEnded runs at a scheduled episode end t. Extensions move gcEndAt
// forward after the event is scheduled; the guard suppresses the stale end
// notification so only the event at the episode's final end fires the
// hook.
func (d *Device) gcEnded(t sim.Time) {
	if d.gcEndAt != t {
		return
	}
	if d.Trace.Enabled() {
		d.Trace.Emit(t, obs.Event{Kind: obs.KGCEnd, Dev: int32(d.ID), Page: -1})
	}
	if d.OnGCEnd != nil {
		d.OnGCEnd(t, d)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkRange rejects malformed page ranges. Callers at the public API
// boundary return the error to the host; internal callers whose ranges are
// valid by construction treat it as an invariant violation.
func (d *Device) checkRange(lpn, pages int) error {
	if pages < 0 || lpn < 0 || lpn+pages > d.LogicalPages() {
		return fmt.Errorf("ssd: page range [%d,%d) outside device of %d pages",
			lpn, lpn+pages, d.LogicalPages())
	}
	if pages == 0 {
		return fmt.Errorf("ssd: zero-page request at lpn %d", lpn)
	}
	return nil
}

// Prefill performs the paper's "simulation warm-up": it writes the first
// usedPages logical pages once (so reads of live data hit mapped pages)
// and then randomly overwrites overwriteFrac of that span so block
// validity is uneven and steady-state garbage collection has genuine
// victims. Pages above usedPages (for example a reserved staging region)
// stay unmapped — they carry no host data yet. Passing usedPages <= 0
// leaves the device completely fresh. All of this is logical only — it
// consumes no simulated time and is excluded from the device statistics.
// The device must be fresh, with nothing written yet: the first pass is
// flash.FTL.Fill, the closed form of writing pages 0..usedPages-1 in order.
func (d *Device) Prefill(rng *rand.Rand, overwriteFrac float64, usedPages int) {
	if usedPages > d.LogicalPages() {
		usedPages = d.LogicalPages()
	}
	if usedPages > 0 {
		d.ftl.Fill(usedPages)
	}
	n := int(overwriteFrac * float64(usedPages))
	for i := 0; i < n; i++ {
		d.ftl.Write(rng.Intn(usedPages))
		if d.ftl.NeedGC(d.cfg.GCLowWater) {
			d.ftl.CollectUntil(d.cfg.GCHighWater, 0)
		}
	}
	// Forget warm-up activity so experiments start from zero counters.
	d.stats = Stats{}
}

// FreeBlocks exposes the FTL free-block count (used by tests and by the
// harness to verify steady-state warm-up).
func (d *Device) FreeBlocks() int { return d.ftl.FreeBlocks() }

// Erases exposes the FTL cumulative erase count including warm-up.
func (d *Device) Erases() int64 { return d.ftl.Erases() }

// ChannelBacklog returns how far in the future channel c is booked.
func (d *Device) ChannelBacklog(now sim.Time, c int) sim.Time {
	if d.free[c] <= now {
		return 0
	}
	return d.free[c] - now
}

// MaxBacklog returns the largest channel backlog at now.
func (d *Device) MaxBacklog(now sim.Time) sim.Time {
	var m sim.Time
	for c := range d.free {
		if b := d.ChannelBacklog(now, c); b > m {
			m = b
		}
	}
	return m
}

// trackProgram appends one program window, pruning finished windows when
// the log doubles so the slice stays proportional to in-flight work.
func (d *Device) trackProgram(now sim.Time, lpn int, start, end sim.Time) {
	if len(d.programs) >= 64 && len(d.programs) == cap(d.programs) {
		live := d.programs[:0]
		for _, w := range d.programs {
			if w.end > now {
				live = append(live, w)
			}
		}
		d.programs = live
	}
	d.programs = append(d.programs, programWindow{lpn: lpn, start: start, end: end})
}

// TornPrograms returns the logical pages whose program window straddles the
// instant at — the pages a power cut at that instant tears. Requires
// TrackPrograms; the result is in program-issue order.
func (d *Device) TornPrograms(at sim.Time) []int {
	var torn []int
	for _, w := range d.programs {
		if w.start <= at && at < w.end {
			torn = append(torn, w.lpn)
		}
	}
	return torn
}

// Wear returns the maximum and mean per-block erase counts, the endurance
// view of GC activity (each block tolerates a limited number of erases).
func (d *Device) Wear() (max int, mean float64) {
	blocks := d.cfg.Geometry.Blocks
	total := 0
	for b := 0; b < blocks; b++ {
		ec := d.ftl.BlockEraseCount(b)
		total += ec
		if ec > max {
			max = ec
		}
	}
	return max, float64(total) / float64(blocks)
}
