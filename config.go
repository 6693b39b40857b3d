// Package gcsteering is a discrete-event simulation library reproducing
// "GC-aware Request Steering with Improved Performance and Reliability for
// SSD-based RAIDs" (Wu et al., IPDPS 2018).
//
// It provides, end to end: a flash SSD simulator with page-mapped FTL and
// greedy garbage collection, a RAID5/6 engine with real parity codecs,
// the LGC and GGC baseline GC-coordination schemes, the GC-Steering scheme
// itself (D_Table, R_LRU, dedicated or reserved staging space, request
// redirection, reclaim), a failure-recovery engine with the paper's
// parallel reconstruction workflow, synthetic workload generators matched
// to the paper's Table I, and trace parsers for the MSR Cambridge and
// SPC-1 formats.
//
// Quick start:
//
//	cfg := gcsteering.DefaultConfig()
//	cfg.Scheme = gcsteering.SchemeSteering
//	sys, err := gcsteering.New(cfg)
//	tr, err := sys.GenerateWorkload("Fin1", 20000) // or cfg.GenerateWorkload
//	res, err := sys.Replay(tr)
//	fmt.Println(res.Latency)
package gcsteering

import (
	"fmt"
	"math"

	"gcsteering/internal/fault"
	"gcsteering/internal/flash"
	"gcsteering/internal/raid"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
	"gcsteering/internal/workload"
)

// Scheme selects the GC-handling scheme under test.
type Scheme int

const (
	// SchemeLGC is the baseline: local, uncoordinated GC per SSD.
	SchemeLGC Scheme = iota
	// SchemeGGC is globally coordinated GC (Kim et al.'s Harmonia).
	SchemeGGC
	// SchemeSteering is the paper's GC-aware request steering.
	SchemeSteering
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeLGC:
		return "LGC"
	case SchemeGGC:
		return "GGC"
	case SchemeSteering:
		return "GC-Steering"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// StagingKind selects where GC-Steering stages redirected data (Fig. 10).
type StagingKind int

const (
	// StagingReserved uses the pre-reserved space of each SSD in the array
	// (the paper's default).
	StagingReserved StagingKind = iota
	// StagingDedicated uses a dedicated spare SSD.
	StagingDedicated
)

// String names the staging configuration as in Fig. 10.
func (k StagingKind) String() string {
	if k == StagingDedicated {
		return "Dedicated"
	}
	return "Reserved"
}

// Level re-exports the RAID levels.
type Level = raid.Level

// RAID levels supported by the array engine.
const (
	RAID5 = raid.RAID5
	RAID6 = raid.RAID6
)

// FlashGeometry re-exports the SSD geometry knobs.
type FlashGeometry = flash.Geometry

// LatencyModel re-exports the flash timing knobs.
type LatencyModel = ssd.LatencyModel

// Config describes one simulated storage system.
type Config struct {
	// Disks is the number of member SSDs in the array.
	Disks int
	// Level is the RAID level: RAID5, the zero value and the level the
	// paper evaluates, or RAID6, which survives a second failure.
	Level Level
	// StripeUnitKB is the stripe unit ("chunk") size in KiB.
	StripeUnitKB int
	// Scheme selects LGC, GGC or GC-Steering.
	Scheme Scheme
	// Staging selects the staging configuration for SchemeSteering.
	Staging StagingKind
	// ReservedFrac is the fraction of each member SSD set aside as
	// reserved space. It is carved out for every scheme so all schemes see
	// an identical array geometry (the paper compares schemes on the same
	// number of SSDs).
	ReservedFrac float64
	// MigrateHotReads and ReclaimMerge toggle the corresponding
	// GC-Steering mechanisms (both on in the paper; the ablation grid
	// turns each off).
	MigrateHotReads bool
	ReclaimMerge    bool
	// DisableGCAwareWrites turns off the controller's reconstruct-write
	// path for partial-stripe writes whose RMW reads would land on a
	// collecting disk (the ablation grid's "RMW only" column; GC-Steering
	// enables it).
	DisableGCAwareWrites bool

	// Checksums enables end-to-end page-checksum verification on the read
	// path: silent corruption (FaultPlan.CorruptPageRate) is detected and
	// served from RAID redundancy instead of being delivered. Off,
	// corrupted reads pass silently.
	//gcsvet:inert
	Checksums bool
	// HedgedReads races a parity reconstruct-read against direct reads
	// whose home disk is mid-GC or fail-slow and takes the winner — the
	// read-side dual of GC-aware write steering, cutting GC-phase read
	// tail latency at the cost of extra sub-ops.
	//gcsvet:inert
	HedgedReads bool
	// ScrubMBps enables the patrol scrubber at this array-wide read
	// bandwidth cap (MB/s): a background walker verifies every stripe
	// against the seeded defects and repairs bad units in place from
	// redundancy. <= 0 disables scrubbing.
	//gcsvet:inert
	ScrubMBps float64

	// DeadlineUs cancels a user request that has not completed within this
	// many microseconds of simulated time: its queued sub-ops are absorbed
	// on arrival at the array, the request is counted in
	// Results.Robust.DeadlineExceeded, and its response time is recorded as
	// the deadline. <= 0 disables deadlines.
	//gcsvet:inert
	DeadlineUs float64
	// MaxRetries bounds re-issues of a read sub-op that hits a transient
	// read error (FaultPlan.TransientReadErrorRate). The first retry waits
	// 200 µs and each further one doubles the wait, up to the simulation
	// horizon. 0 gives up on the first error (it is absorbed, not surfaced,
	// mirroring drive-internal retry exhaustion).
	//gcsvet:inert
	MaxRetries int
	// QueueLimit caps concurrently admitted user requests: beyond it the
	// array sheds background load first (hot-read migrations, scrub pacing)
	// and then rejects arrivals outright (Results.Robust.Rejected). <= 0
	// disables admission control.
	//gcsvet:inert
	QueueLimit int
	// RecordBusy makes the system log every background-occupancy window —
	// per-device GC episodes, open health breakers, and active rebuilds —
	// as Results.Busy intervals. The cluster routing tier consumes these as
	// its steering signal (route reads away from arrays that report busy
	// windows). Recording appends to an in-memory slice from hooks that are
	// already wired; it schedules no engine events, so an identically
	// seeded run is unchanged by enabling it.
	//gcsvet:inert
	RecordBusy bool

	// Quarantine enables the per-device health monitor: a circuit breaker
	// per member that opens on sustained fail-slow behaviour (EWMA op
	// latency far above the peers'), steers traffic away exactly like a GC
	// signal while open, and probes half-open with exponential backoff
	// until the device proves healthy again. With no fail-slow member the
	// monitor observes without scheduling anything, so enabling it on a
	// healthy run reproduces the baseline byte for byte.
	//gcsvet:inert
	Quarantine bool

	// Flash is the per-SSD geometry; Latency the flash op timing.
	Flash   FlashGeometry
	Latency LatencyModel
	// GCLowWater/GCHighWater are the free-block watermarks (in blocks)
	// that trigger and terminate a GC episode. ForcedGCVictims is the
	// minimum work a GGC-forced episode performs.
	GCLowWater      int
	GCHighWater     int
	ForcedGCVictims int
	// GCOverheadMs is the fixed per-invocation GC cost in milliseconds
	// charged to all channels at episode start.
	GCOverheadMs float64

	// PrefillOverwrite controls warm-up: after filling the device, this
	// fraction of its pages is overwritten so steady-state GC has victims.
	PrefillOverwrite float64
	// Seed makes the whole simulation deterministic.
	Seed int64

	// Trace, when non-nil, receives the run's structured event stream (GC
	// lifecycle, sub-op fan-out, steering decisions, fault/rebuild events,
	// request arrivals and completions) as JSON lines. Build one with
	// NewTracer and call its Flush method after the run. A nil tracer is
	// free: emit sites pay one nil check. A Tracer belongs to exactly one
	// System — never share it across concurrently replaying systems.
	Trace *Tracer
	// WindowQuantiles enables per-window quantile tracking (and engine
	// queue-depth sampling) in the results' time series, at the cost of one
	// histogram (~5 KB) per active 100 ms window. Off, the series still
	// carries per-window mean/max/count and the gauges.
	//gcsvet:inert
	WindowQuantiles bool

	// Fault configures deterministic fault injection, executed by
	// System.Replay alongside the workload. The zero value injects nothing.
	Fault FaultPlan

	// PowerLossAtMs, when > 0, cuts the whole array's power at this instant
	// of simulated time: in-flight page programs tear (persisting garbage
	// that fails its CRC32-C), in-flight requests are lost, and the run
	// continues on a remounted array that must resync before (journal on)
	// or while (journal off) serving the rest of the trace — all within one
	// System.Replay call. <= 0 leaves the replay untouched so default runs
	// stay byte-identical.
	//gcsvet:inert
	PowerLossAtMs float64
	// IntentJournal arms the write-ahead dirty-stripe intent journal for
	// power-loss runs: stripes are marked dirty before the write fan-out and
	// cleared at the stripe barrier, so the post-crash resync walks only the
	// stripes that were actually open at the cut. Off, the remount must
	// full-scrub the array to find torn stripes — the window of
	// vulnerability the journal closes. Only consulted when PowerLossAtMs is
	// set.
	//gcsvet:inert
	IntentJournal bool
}

// DiskFault schedules one whole-device failure for fault-injected runs.
type DiskFault struct {
	// Disk is the member index to fail.
	Disk int
	// AtMs is the injection instant in milliseconds of simulated time.
	AtMs float64
}

// DiskSlowdown is a transient latency spike on one device: every page op
// on the affected channels pays ExtraPerOpUs on top of its service time
// while the window is open. A window spanning the run models a fail-slow
// device; a short one models an externally-observed GC storm.
type DiskSlowdown struct {
	Disk int
	// Channel restricts the spike to one flash channel; -1 hits them all.
	Channel    int
	StartMs    float64
	DurationMs float64
	// ExtraPerOpUs is the added service time per page op, in microseconds.
	ExtraPerOpUs float64
}

// FaultPlan configures deterministic fault injection for one run: device
// failures at scheduled instants, latent sector errors (unrecoverable read
// errors) at a per-page rate, latency spikes, and automatic
// repair-and-rebuild. All randomness derives from the run's Seed, so a
// fault-injected run is exactly as reproducible as a healthy one.
type FaultPlan struct {
	// Failures are whole-device losses. A failure the RAID level cannot
	// absorb is recorded as an array failure (data loss) in the results.
	Failures []DiskFault
	// Slowdowns perturb the device op path while their windows are open.
	Slowdowns []DiskSlowdown
	// UREPerPageRead is the probability that reading one page surfaces a
	// latent sector error. Use simulation-scale rates (1e-5 .. 1e-3); real
	// drives quote ~1 per 1e14-1e16 bits, far too rare for short traces.
	UREPerPageRead float64
	// LatentPageRate seeds this fraction of each device's pages as
	// persistent latent sector errors at run start: reads touching them
	// error until a patrol scrub repairs them in place. Unlike the
	// memoryless UREPerPageRead draws, these are the grown defects a scrub
	// can find and fix before a rebuild trips over them.
	LatentPageRate float64
	// CorruptPageRate seeds this fraction of each device's pages as
	// silently corrupted: reads return bad data without an error, caught
	// only by end-to-end checksums (Config.Checksums) or the scrubber.
	CorruptPageRate float64
	// TransientReadErrorRate is the per-page probability that one read
	// attempt fails transiently: unlike UREPerPageRead the error is not
	// sticky — a retry (Config.MaxRetries) draws independently and usually
	// succeeds. Exhausted retries are absorbed and counted, not surfaced.
	TransientReadErrorRate float64
	// RepairDelayMs is the hot-spare activation lag between a failure and
	// the automatic rebuild start.
	RepairDelayMs float64
	// RebuildMBps caps the automatic rebuild bandwidth; <= 0 disables the
	// rebuild and leaves the array degraded.
	RebuildMBps float64
	// RebuildTarget selects the reconstruction workflow: a fresh spare or
	// GC-Steering's staging space.
	RebuildTarget RebuildTarget
}

// RebuildTarget selects where reconstruction writes the regenerated data.
type RebuildTarget int

const (
	// RebuildToSpare writes to a fresh replacement SSD (the traditional
	// workflow).
	RebuildToSpare RebuildTarget = iota
	// RebuildToStaging makes GC-Steering's staging space the replacement
	// (§III-D case ②): reserved staging rebuilds in parallel into the
	// survivors' reserved space, dedicated staging into the staging SSD,
	// which then joins the array and stages nothing more (a later failure
	// rebuilds onto a fresh SSD). Redirected write data is reclaimed to
	// its home disks before the reconstruction starts. SchemeSteering only.
	RebuildToStaging
)

// Enabled reports whether the plan injects anything.
func (p FaultPlan) Enabled() bool {
	return len(p.Failures) > 0 || len(p.Slowdowns) > 0 || p.UREPerPageRead > 0 ||
		p.LatentPageRate > 0 || p.CorruptPageRate > 0 || p.TransientReadErrorRate > 0
}

// plan lowers the public spec (milliseconds, microseconds) to the internal
// fault schedule (engine nanoseconds), deriving the URE streams from seed.
func (p FaultPlan) plan(seed int64) fault.Plan {
	out := fault.Plan{
		UREPerPageRead:         p.UREPerPageRead,
		LatentPageRate:         p.LatentPageRate,
		CorruptPageRate:        p.CorruptPageRate,
		TransientReadErrorRate: p.TransientReadErrorRate,
		RepairDelay:            sim.Time(p.RepairDelayMs * float64(sim.Millisecond)),
		RebuildMBps:            p.RebuildMBps,
		Seed:                   seed,
	}
	for _, f := range p.Failures {
		out.Failures = append(out.Failures, fault.DiskFailure{
			Disk: f.Disk,
			At:   sim.Time(f.AtMs * float64(sim.Millisecond)),
		})
	}
	for _, s := range p.Slowdowns {
		out.Slowdowns = append(out.Slowdowns, fault.Slowdown{
			Disk:     s.Disk,
			Channel:  s.Channel,
			Start:    sim.Time(s.StartMs * float64(sim.Millisecond)),
			Duration: sim.Time(s.DurationMs * float64(sim.Millisecond)),
			Extra:    sim.Time(s.ExtraPerOpUs * float64(sim.Microsecond)),
		})
	}
	return out
}

// DefaultConfig mirrors the paper's main setup: RAID5 over 5 SSDs with a
// 64 KB stripe unit, GC-Steering with reserved staging.
func DefaultConfig() Config {
	g := flash.DefaultGeometry()
	// The calibrated simulation geometry: 128 MB of raw flash per member
	// (256 blocks × 128 pages × 4 KiB). Small devices keep full experiment
	// grids fast; all shape results in EXPERIMENTS.md were validated at
	// this size.
	g.Blocks = 256
	g.PagesPerBlock = 128
	return Config{
		Disks:           5,
		Level:           RAID5,
		StripeUnitKB:    64,
		Scheme:          SchemeSteering,
		Staging:         StagingReserved,
		ReservedFrac:    0.20,
		MigrateHotReads: true,
		ReclaimMerge:    true,
		Flash:           g,
		Latency:         ssd.DefaultLatency(),
		// Long, infrequent GC episodes — the regime where uncoordinated GC
		// produces the pronounced tail latencies the paper measures.
		GCLowWater:  g.Channels,
		GCHighWater: 3 * g.Channels,
		// A GGC-forced episode collects a couple of blocks without refilling
		// the free pool, so every member's own trigger still launches a
		// global round (the mechanism behind GGC's inflated GC counts), and
		// each GC invocation pays a fixed entry cost.
		ForcedGCVictims:  2,
		GCOverheadMs:     4,
		PrefillOverwrite: 0.5,
		Seed:             1,
	}
}

// Validate reports configuration errors beyond what the subsystems check.
func (c Config) Validate() error {
	// The geometry comes first: the checks below divide by its page size
	// and block size.
	if err := c.Flash.Validate(); err != nil {
		return err
	}
	if c.StripeUnitKB <= 0 || (c.StripeUnitKB*1024)%c.Flash.PageSize != 0 {
		return fmt.Errorf("gcsteering: StripeUnitKB %d not a page multiple", c.StripeUnitKB)
	}
	// The fraction checks are written so that NaN fails too.
	if !(c.ReservedFrac >= 0 && c.ReservedFrac <= 0.5) {
		return fmt.Errorf("gcsteering: ReservedFrac %v outside [0, 0.5]", c.ReservedFrac)
	}
	// A NaN overwrite would also skip the warm-up and never match its own
	// Warmup key.
	if !(c.PrefillOverwrite >= 0 && !math.IsInf(c.PrefillOverwrite, 1)) {
		return fmt.Errorf("gcsteering: PrefillOverwrite %v must be finite and non-negative", c.PrefillOverwrite)
	}
	// The layout New and Capacity build: an unknown level, or too few
	// disks for the level, is rejected here rather than panicking there.
	if err := c.layout().Validate(); err != nil {
		return err
	}
	if c.Scheme == SchemeSteering && c.Staging == StagingReserved && c.ReservedFrac == 0 {
		return fmt.Errorf("gcsteering: reserved staging needs ReservedFrac > 0")
	}
	if c.Fault.RebuildTarget == RebuildToStaging && c.Scheme != SchemeSteering {
		return fmt.Errorf("gcsteering: RebuildToStaging needs a staging space (scheme %v has none)", c.Scheme)
	}
	// Every bandwidth cap must pace its transfers (a stripe unit for the
	// rebuild, a whole stripe for the scrub) within sim.Horizon.
	unitBytes := int64(c.StripeUnitKB) * 1024
	caps := []struct {
		name  string
		bytes int64
		mbps  float64
	}{{"Fault.RebuildMBps", unitBytes, c.Fault.RebuildMBps},
		{"ScrubMBps", unitBytes * int64(c.Disks), c.ScrubMBps}}
	for _, p := range caps {
		if err := rebuild.CheckPace(p.bytes, p.mbps); err != nil {
			return fmt.Errorf("gcsteering: %s %w", p.name, err)
		}
	}
	// Every ms/µs field must convert to engine time inside sim.Horizon, so
	// no conversion overflows and no instant formed from one runs past the
	// clock's range. Written so that NaN fails too.
	const ms, us = float64(sim.Millisecond), float64(sim.Microsecond)
	type span struct {
		name string
		ns   float64
	}
	spans := []span{{"DeadlineUs", c.DeadlineUs * us}, {"PowerLossAtMs", c.PowerLossAtMs * ms},
		{"GCOverheadMs", c.GCOverheadMs * ms}, {"Fault.RepairDelayMs", c.Fault.RepairDelayMs * ms}}
	for _, f := range c.Fault.Failures {
		spans = append(spans, span{"Fault.Failures AtMs", f.AtMs * ms})
	}
	for _, s := range c.Fault.Slowdowns {
		spans = append(spans, span{"Fault.Slowdowns StartMs", s.StartMs * ms},
			span{"Fault.Slowdowns DurationMs", s.DurationMs * ms}, span{"Fault.Slowdowns ExtraPerOpUs", s.ExtraPerOpUs * us})
	}
	for _, f := range spans {
		if !(math.Abs(f.ns) < float64(sim.Horizon)) {
			return fmt.Errorf("gcsteering: %s is %v ns, not a finite duration within the simulation horizon %v", f.name, f.ns, sim.Horizon)
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("gcsteering: MaxRetries %d negative", c.MaxRetries)
	}
	if err := c.Fault.plan(c.Seed).Validate(c.Disks, c.Flash.Channels); err != nil {
		return err
	}
	return nil
}

// Capacity returns the array's host-visible logical capacity in bytes
// without building the system. The cluster layer sizes tenant volumes from
// it before any shard exists, and GenerateWorkload sizes traces by it. It
// needs a Config that Validate accepts: on one it rejects, such as an
// unknown Level, it may panic.
func (c Config) Capacity() int64 {
	return int64(c.layout().LogicalPages()) * int64(c.Flash.PageSize)
}

// layout is the array layout the Config describes.
func (c Config) layout() raid.Layout {
	return raid.Layout{Level: c.Level, Disks: c.Disks, UnitPages: c.unitPages(), DiskPages: c.diskPages()}
}

// GenerateWorkload synthesizes up to maxRequests of the named Table I
// profile sized to the array's capacity (maxRequests <= 0 keeps the full
// published request count), without building the system. A trace depends
// only on the capacity and the seed, so a caller can derive fault instants
// and bandwidth caps from it before the one build that replays it. A
// Config that Validate rejects returns Validate's error.
func (c Config) GenerateWorkload(profile string, maxRequests int) (Trace, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p, ok := workload.ByName(profile)
	if !ok {
		return nil, fmt.Errorf("gcsteering: unknown profile %q (have %v)", profile, workload.Names())
	}
	return workload.Generate(p, workload.Options{
		Capacity:    c.Capacity(),
		MaxRequests: maxRequests,
		Seed:        c.Seed + 7,
	})
}

// deviceConfig is the SSD configuration shared by the members, the
// dedicated staging SSD, and replacements.
func (c Config) deviceConfig() ssd.Config {
	return ssd.Config{
		Geometry:        c.Flash,
		Latency:         c.Latency,
		GCLowWater:      c.GCLowWater,
		GCHighWater:     c.GCHighWater,
		ForcedGCVictims: c.ForcedGCVictims,
		GCOverhead:      sim.Time(c.GCOverheadMs * float64(sim.Millisecond)),
	}
}

// unitPages is the stripe unit in pages.
func (c Config) unitPages() int { return c.StripeUnitKB * 1024 / c.Flash.PageSize }

// diskPages is the per-member usable (array) page count after the reserved
// carve-out, rounded down to whole stripe units.
func (c Config) diskPages() int {
	dev := c.Flash.LogicalPages()
	data := int(float64(dev) * (1 - c.ReservedFrac))
	return data - data%c.unitPages()
}
