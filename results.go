package gcsteering

import (
	"fmt"
	"strings"
)

// Results aggregates everything one run measures.
type Results struct {
	// Scheme and Staging identify the configuration.
	Scheme  Scheme
	Staging StagingKind

	// Latency summarizes response times over all requests; ReadLatency
	// and WriteLatency split by direction. All values are nanoseconds.
	Latency      LatencySummary
	ReadLatency  LatencySummary
	WriteLatency LatencySummary

	// GCEpisodes and Erases sum device GC activity over the run;
	// GGCForced counts episodes forced by global coordination.
	GCEpisodes int64
	Erases     int64
	GGCForced  int64
	// GCExtensions sums collection work folded into already-running
	// episodes (mid-episode writes draining the free pool again) — these
	// extend an episode's window rather than starting a new one.
	GCExtensions int64
	// ForcedEpisodes counts device GC episodes initiated by ForceGC.
	ForcedEpisodes int64
	// GCWallTime sums, over devices, the wall-clock time spent in the GC
	// state; Duration is the run's total simulated time. Their ratio
	// divided by the device count is the mean per-device GC duty cycle.
	GCWallTime Time
	Duration   Time
	// WriteAmp is the mean FTL write amplification across members.
	WriteAmp float64

	// Steering carries the redirector counters (zero for baselines);
	// RedirectRatio is the fraction of GC-period pages that dodged a
	// collecting disk.
	Steering      SteeringStats
	RedirectRatio float64

	// Fault carries the reliability measurements of a run with a fault
	// plan (Injected is false when Config.Fault is empty).
	Fault FaultStats

	// Integrity carries the end-to-end checksum and hedged-read counters
	// (all zero unless Config.Checksums / Config.HedgedReads enabled them).
	Integrity IntegrityStats

	// Robust carries the fail-slow tolerance counters: deadlines, retries,
	// admission control, and health quarantines (all zero unless the
	// corresponding Config knobs enabled them).
	Robust RobustStats

	// Scrub carries the patrol scrubber's counters for runs with
	// Config.ScrubMBps > 0; ScrubEnabled marks that the scrubber ran.
	Scrub        ScrubStats
	ScrubEnabled bool

	// VariabilityCV is the coefficient of variation of per-100 ms-window
	// mean response times — the paper's Figure 1 "performance variability"
	// as one number. Series holds the full windowed time series it is
	// derived from (per-window mean/max/count, optional P99, and the
	// gc_active / staging_free_write_slots gauges); render it with
	// Series.Sparkline or export it with Series.WriteCSV.
	VariabilityCV float64
	Series        *Recorder

	// Phases splits response times by the system state at arrival, the
	// per-phase breakdown behind the paper's Fig. 1 observation that the
	// latency spikes line up with GC windows.
	Phases PhaseLatencies

	// Busy lists the background-occupancy windows recorded when
	// Config.RecordBusy is set: per-device GC episodes, open health
	// breakers, and active rebuilds, each closed at the run end if still
	// open. The cluster routing tier reads these as its steering signal.
	// Intervals appear in the order they closed, which is deterministic.
	Busy []BusyInterval

	// Devices carries the per-member breakdown of the aggregate GC and
	// endurance counters above.
	Devices []DeviceResults

	// Wear summarizes endurance: per-block erase counts across members.
	// GC schemes that erase more (GGC's forced collections) age the flash
	// faster — the reliability angle of §II-A.
	Wear WearStats

	// Crash carries the power-loss and recovery accounting of a run with
	// Config.PowerLossAtMs set (Enabled is false otherwise). For crash runs
	// the top-level latency fields describe the post-crash period;
	// Crash.PreCrash holds the pre-cut summary.
	Crash CrashStats
}

// BusyKind classifies one background-occupancy window in Results.Busy.
type BusyKind uint8

const (
	// BusyGC is one member's garbage-collection episode.
	BusyGC BusyKind = iota
	// BusyBreaker is one member's open health circuit breaker.
	BusyBreaker
	// BusyRebuild is an active reconstruction (array-wide, Dev -1).
	BusyRebuild
)

// String names the busy kind for reports.
func (k BusyKind) String() string {
	switch k {
	case BusyGC:
		return "gc"
	case BusyBreaker:
		return "breaker"
	case BusyRebuild:
		return "rebuild"
	default:
		return "unknown"
	}
}

// BusyInterval is one span during which a member device (or, for rebuilds,
// the whole array) was occupied with background work that degrades
// foreground service. Recorded only when Config.RecordBusy is set.
type BusyInterval struct {
	Kind  BusyKind
	Dev   int // member device, -1 for array-wide windows
	Start Time
	End   Time
}

// PhaseLatencies splits response times by what the array was doing when the
// request arrived. The phases are exclusive: Degraded wins over GC.
type PhaseLatencies struct {
	// Quiet: full redundancy and no member collecting.
	Quiet LatencySummary
	// GC: at least one member was inside a GC episode.
	GC LatencySummary
	// GCRead restricts GC to reads — the tail the hedged reconstruct-reads
	// (Config.HedgedReads) attack.
	GCRead LatencySummary
	// Degraded: the array was missing at least one member.
	Degraded LatencySummary
}

// DeviceResults is the per-member view of one run.
type DeviceResults struct {
	ID           int
	GCEpisodes   int64
	GCExtensions int64
	ForcedGCs    int64
	Erases       int64
	GCWallTime   Time
	WriteAmp     float64
	MaxErase     int
	MeanErase    float64
}

// WearStats aggregates per-block erase counts across all member SSDs.
type WearStats struct {
	MaxErase  int
	MeanErase float64
}

// IntegrityStats aggregates the end-to-end data-integrity counters of one
// run: checksum verification failures on the read path and the hedged
// reconstruct-reads raced against GC-busy or fail-slow members.
type IntegrityStats struct {
	// ChecksumErrors counts reads whose end-to-end verification failed;
	// ChecksumFixed the subset served from redundancy instead (the rest
	// were unrecoverable and counted as data loss).
	ChecksumErrors int64
	ChecksumFixed  int64
	// HedgedReads counts reads raced against a parity reconstruct-read;
	// HedgeReconWins how often the reconstruction finished first.
	HedgedReads    int64
	HedgeReconWins int64
}

// RobustStats aggregates the fail-slow tolerance counters of one run: what
// the deadlines, retries, admission control, and health monitor
// (Config.DeadlineUs / MaxRetries / QueueLimit / Quarantine) did.
type RobustStats struct {
	// DeadlineExceeded counts user requests cancelled at their deadline;
	// CanceledSubOps the queued sub-ops the array absorbed for them.
	DeadlineExceeded int64
	CanceledSubOps   int64
	// Rejected counts user requests refused by admission control.
	Rejected int64
	// TransientErrors counts read attempts that failed transiently; Retries
	// the re-issues scheduled for them; RetriesExhausted the sub-ops that
	// gave up after the retry budget.
	TransientErrors  int64
	Retries          int64
	RetriesExhausted int64
	// Quarantines counts circuit-breaker openings (re-opens included);
	// Reinstatements closings after a clean probe; Probes half-open probe
	// reads issued; QuarantineTime the summed open time across devices.
	Quarantines    int64
	Reinstatements int64
	Probes         int64
	QuarantineTime Time
	// MigrationsShed and ScrubSheds count background work dropped under
	// admission-control queue pressure (hot-read migrations and deferred
	// scrub stripes respectively).
	MigrationsShed int64
	ScrubSheds     int64
}

// FaultStats aggregates the reliability measurements of one fault-injected
// run: what the fault plan did to the array and what it cost.
type FaultStats struct {
	// Injected marks results of a run that executed a fault plan.
	Injected bool
	// Failures counts whole-device losses the RAID level absorbed;
	// ArrayFailures those beyond its tolerance (the array was lost).
	Failures      int64
	ArrayFailures int64
	// Rebuilds counts completed automatic reconstructions.
	Rebuilds int64
	// UREs counts latent sector errors surfaced by host and rebuild reads;
	// URERepaired the subset reconstructed from redundancy; DataLossEvents
	// everything unrecoverable (UREs past the last copy, rebuild units lost,
	// and array failures).
	UREs           int64
	URERepaired    int64
	DataLossEvents int64
	// RebuildUREs is the subset of UREs encountered by rebuild reads on the
	// survivors — the §III-D exposure a prior patrol scrub shrinks by
	// repairing latent defects before the rebuild trips over them.
	RebuildUREs int64
	// WindowOfVulnerability totals the simulated time the array ran without
	// full redundancy — the paper's §III-D reliability metric: while the
	// window is open, one more loss is data loss. RebuildTime is the part
	// spent actively reconstructing.
	WindowOfVulnerability Time
	RebuildTime           Time
	// DegradedLatency summarizes response times of requests submitted while
	// the array was degraded.
	DegradedLatency LatencySummary
}

// results snapshots the system state into a Results.
func (s *System) results() *Results {
	r := &Results{
		Scheme:       s.cfg.Scheme,
		Staging:      s.cfg.Staging,
		Latency:      s.lat.Summarize(),
		ReadLatency:  s.readLat.Summarize(),
		WriteLatency: s.writeLat.Summarize(),
	}
	r.Duration = s.eng.Now()
	if s.busy != nil {
		s.busy.finish(s.eng.Now())
		r.Busy = s.busy.intervals
	}
	r.VariabilityCV = s.rec.VariabilityCV()
	r.Series = s.rec
	r.Phases = PhaseLatencies{
		Quiet:    s.quietLat.Summarize(),
		GC:       s.gcLat.Summarize(),
		GCRead:   s.gcRdLat.Summarize(),
		Degraded: s.degLat.Summarize(),
	}
	var wa float64
	for _, d := range s.devs {
		st := d.Stats()
		r.GCEpisodes += st.GCEpisodes
		r.GCExtensions += st.GCExtensions
		r.Erases += st.Erases
		r.ForcedEpisodes += st.ForcedGCs
		r.GCWallTime += st.GCWallTime
		wa += d.WriteAmplification()
		max, mean := d.Wear()
		if max > r.Wear.MaxErase {
			r.Wear.MaxErase = max
		}
		r.Wear.MeanErase += mean / float64(len(s.devs))
		r.Devices = append(r.Devices, DeviceResults{
			ID:           d.ID,
			GCEpisodes:   st.GCEpisodes,
			GCExtensions: st.GCExtensions,
			ForcedGCs:    st.ForcedGCs,
			Erases:       st.Erases,
			GCWallTime:   st.GCWallTime,
			WriteAmp:     d.WriteAmplification(),
			MaxErase:     max,
			MeanErase:    mean,
		})
	}
	r.WriteAmp = wa / float64(len(s.devs))
	if s.ggc != nil {
		r.GGCForced = s.ggc.Triggered
	}
	if s.steer != nil {
		r.Steering = s.steer.Stats()
		r.RedirectRatio = s.steer.RedirectRatio()
	}
	as := s.arr.Stats()
	r.Robust = RobustStats{
		DeadlineExceeded: s.deadlineHits,
		CanceledSubOps:   as.CanceledSubOps,
		Rejected:         s.rejected,
		TransientErrors:  as.TransientErrors,
		Retries:          as.Retries,
		RetriesExhausted: as.RetriesExhausted,
		MigrationsShed:   r.Steering.MigrationsShed,
	}
	if s.health != nil {
		s.health.Finish(s.eng.Now()) // charge still-open breakers (idempotent)
		hs := s.health.Stats()
		r.Robust.Quarantines = hs.Quarantines
		r.Robust.Reinstatements = hs.Reinstatements
		r.Robust.Probes = hs.Probes
		r.Robust.QuarantineTime = hs.QuarantineTime
	}
	r.Integrity = IntegrityStats{
		ChecksumErrors: as.ChecksumErrors,
		ChecksumFixed:  as.ChecksumFixed,
		HedgedReads:    as.HedgedReads,
		HedgeReconWins: as.HedgeReconWins,
	}
	if s.scrubber != nil {
		r.Scrub = s.scrubber.Stats()
		r.ScrubEnabled = true
		r.Robust.ScrubSheds = r.Scrub.PressureSheds
	}
	if s.faults != nil {
		cs := s.faults.Stats()
		r.Fault = FaultStats{
			Injected:              true,
			Failures:              cs.Failures,
			ArrayFailures:         cs.ArrayFailures,
			Rebuilds:              cs.Rebuilds,
			UREs:                  as.UREs + cs.RebuildUREs,
			URERepaired:           as.URERepaired + cs.RebuildUREsRepaired,
			DataLossEvents:        as.DataLossEvents + cs.DataLossUnits + cs.ArrayFailures,
			RebuildUREs:           cs.RebuildUREs,
			WindowOfVulnerability: cs.WindowOfVulnerability,
			RebuildTime:           cs.RebuildTime,
			DegradedLatency:       s.degLat.Summarize(),
		}
	}
	return r
}

// GCDuty returns the mean per-device fraction of the run spent in GC.
func (r *Results) GCDuty(devices int) float64 {
	if r.Duration <= 0 || devices <= 0 {
		return 0
	}
	return float64(r.GCWallTime) / float64(r.Duration) / float64(devices)
}

// String renders a compact single-run report.
func (r *Results) String() string {
	var b strings.Builder
	name := r.Scheme.String()
	if r.Scheme == SchemeSteering {
		name += "/" + r.Staging.String()
	}
	fmt.Fprintf(&b, "%-22s mean=%9.1fµs p99=%9.1fµs gc=%d erases=%d wa=%.2f",
		name, r.Latency.Mean/1e3, float64(r.Latency.P99)/1e3, r.GCEpisodes, r.Erases, r.WriteAmp)
	if r.Scheme == SchemeSteering {
		fmt.Fprintf(&b, " redirect=%.1f%%", 100*r.RedirectRatio)
	}
	if r.Fault.Injected {
		fmt.Fprintf(&b, " wov=%v rebuild=%v loss=%d",
			r.Fault.WindowOfVulnerability, r.Fault.RebuildTime, r.Fault.DataLossEvents)
	}
	if r.ScrubEnabled {
		fmt.Fprintf(&b, " scrubbed=%d repaired=%d", r.Scrub.StripesScanned, r.Scrub.UnitsRepaired)
	}
	if r.Integrity.ChecksumErrors > 0 {
		fmt.Fprintf(&b, " cksum=%d/%d", r.Integrity.ChecksumFixed, r.Integrity.ChecksumErrors)
	}
	if r.Integrity.HedgedReads > 0 {
		fmt.Fprintf(&b, " hedged=%d wins=%d", r.Integrity.HedgedReads, r.Integrity.HedgeReconWins)
	}
	if r.Robust.DeadlineExceeded > 0 || r.Robust.Rejected > 0 {
		fmt.Fprintf(&b, " deadline=%d rejected=%d", r.Robust.DeadlineExceeded, r.Robust.Rejected)
	}
	if r.Robust.TransientErrors > 0 {
		fmt.Fprintf(&b, " transient=%d retries=%d exhausted=%d",
			r.Robust.TransientErrors, r.Robust.Retries, r.Robust.RetriesExhausted)
	}
	if r.Robust.Quarantines > 0 {
		fmt.Fprintf(&b, " quarantines=%d reinstated=%d", r.Robust.Quarantines, r.Robust.Reinstatements)
	}
	if r.Crash.Enabled {
		mode := "journal"
		if !r.Crash.Journaled {
			mode = "no-journal"
		}
		fmt.Fprintf(&b, " crash[%s]=%v dirty=%d torn=%d found=%d/%d resync=%v",
			mode, r.Crash.CrashAt, r.Crash.DirtyStripes, r.Crash.TornPages,
			r.Crash.ResyncFound, r.Crash.InconsistentStripes, r.Crash.ResyncDuration)
	}
	return b.String()
}
