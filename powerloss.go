package gcsteering

import (
	"sort"

	"gcsteering/internal/fault"
	"gcsteering/internal/obs"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sim"
)

// resyncMBps caps the post-crash resync read bandwidth (MB/s).
const resyncMBps = 200

// CrashStats describes one power-loss run: what the cut interrupted, what
// the crash physically left inconsistent, and what the post-restart resync
// found and repaired (Results.Crash).
type CrashStats struct {
	// Enabled marks a run that actually executed a power loss.
	Enabled bool
	// Journaled reports whether the intent journal drove the recovery.
	Journaled bool
	// CrashAt is the cut instant.
	CrashAt Time
	// PreCrashRequests counts requests that settled before the cut;
	// PreCrash summarizes their response times.
	PreCrashRequests int64
	PreCrash         LatencySummary
	// InFlightLost counts requests that were in flight at the cut and
	// never completed.
	InFlightLost int
	// DirtyStripes is the number of stripes the intent journal held open
	// at the cut — the journal-on resync scope.
	DirtyStripes int
	// TornPages counts page programs that were mid-flight at the cut and
	// persisted CRC-failing garbage.
	TornPages int
	// InconsistentStripes is the ground truth: stripes the cut left with
	// disagreeing legs (torn pages, or some legs persisted while others
	// never started). Every one of them needs a resync before a later
	// device failure can reconstruct through it safely.
	InconsistentStripes int
	// Resync* describe the mount-time resync walk: its scope, how many of
	// the walked stripes were found inconsistent and repaired, the torn
	// member units rewritten, and the wall-clock (simulated) duration.
	ResyncStripesWalked int64
	ResyncFound         int64
	ResyncTornUnits     int64
	ResyncDuration      Time
	ResyncPagesRead     int64
	ResyncPagesWritten  int64
	// ServedDuringResync marks the journal-off mode: the array cannot
	// afford to stall for a full-array walk, so it serves while the scrub
	// runs — the window of vulnerability the journal closes.
	ServedDuringResync bool
}

// heldArrival is a request that arrived while the remounted array was
// still resyncing (journal-on mode gates serving on resync completion).
type heldArrival struct {
	at sim.Time
	r  Record
}

// powerLoss finishes a Replay whose config cuts the power at
// Config.PowerLossAtMs (the arrivals are already scheduled):
//
//  1. The system runs normally until the cut — with the intent journal
//     armed (New arms it for power-loss configs: the simulation needs the
//     ground truth even when recovery is forbidden from using it) and
//     page-program windows tracked. In-flight requests are lost; page
//     programs straddling the instant tear, persisting garbage that fails
//     its CRC32-C on read.
//  2. The array remounts as a fresh identically-seeded system (the same
//     warmed steady-state flash; page contents are not modeled beyond the
//     defect sets) with the torn pages installed as CRC-failing defects.
//     Fault-plan failures that predate the cut re-fail at time zero — a
//     rebuild that was in flight restarts from nothing, as it must when
//     its progress metadata died with the power.
//  3. With Config.IntentJournal, recovery replays the journal and resyncs
//     only the stripes it held open, holding arrivals until the walk
//     completes (their wait is charged to their response times). Without
//     it, recovery has no scope information: the array serves immediately
//     while a full-array scrub hunts for the inconsistencies — every
//     stripe it has not yet reached is the write hole, open.
//  4. The rest of the trace replays against the recovered array.
//
// The returned Results describe the post-crash period (the paper-style
// degraded measurement); Results.Crash carries the crash and recovery
// accounting, including the pre-crash latency summary.
//
// GC-Steering's staged redirected data is host data, and a cut while it
// sits in staging loses it: the steering directory is volatile in this
// model. Crash experiments therefore run the LGC scheme; steering crash
// semantics are future work. Config.ScrubMBps applies only to the
// pre-crash half: after the remount the resync walk is the scrub. Requests
// observed through ObserveRequests are the pre-crash ones only, and traces
// from crash runs are not comparable to healthy-run traces (the clock
// restarts at the remount).
func (s *System) powerLoss(tr Trace) (*Results, error) {
	cfg := s.cfg
	crashAt := sim.Time(cfg.PowerLossAtMs * float64(sim.Millisecond))
	s.eng.RunUntil(crashAt)

	// --- Harvest the crash state. ---
	intents := s.arr.OpenIntents()
	lay := s.arr.Layout()
	unitPages := lay.UnitPages
	diskPages := lay.DiskPages

	// Torn pages per device, restricted to the array region: a program in
	// the reserved tail (staging, rebuild reserve) that tears is simply
	// lost with the volatile steering state it backed.
	tornByDev := make([][]int, len(s.devs))
	tornPages := 0
	for d, dev := range s.devs {
		for _, lpn := range dev.TornPrograms(crashAt) {
			if lpn >= diskPages {
				continue
			}
			tornByDev[d] = append(tornByDev[d], lpn)
			tornPages++
		}
		sort.Ints(tornByDev[d])
	}

	// Ground truth: a stripe is inconsistent when its write was cut with
	// legs disagreeing — some legs persisted while others had not (done >
	// 0), or a leg's pages were torn mid-program. An issued write none of
	// whose legs had started leaves the old stripe intact.
	inconsistent := map[int]bool{}
	dirtySet := map[int]bool{}
	var dirtyOrder []int
	for _, it := range intents {
		if !dirtySet[it.Stripe] {
			dirtySet[it.Stripe] = true
			dirtyOrder = append(dirtyOrder, it.Stripe)
		}
		if !it.Issued || it.LegsDone == it.Legs {
			continue
		}
		if it.LegsDone > 0 {
			inconsistent[it.Stripe] = true
			continue
		}
		for _, leg := range it.Pending {
			if overlapsSorted(tornByDev[leg.Disk], leg.Page, leg.Pages) {
				inconsistent[it.Stripe] = true
				break
			}
		}
	}
	// Torn pages outside any open intent (scrub repair writes are not
	// journaled) still dirty their stripe: they are self-announcing — the
	// CRC fails — so a real controller's journal replay would pick them up
	// from the media scan of the marked region; ours folds them into the
	// dirty list directly.
	for _, pages := range tornByDev {
		for _, lpn := range pages {
			st := lpn / unitPages
			inconsistent[st] = true
			if !dirtySet[st] {
				dirtySet[st] = true
				dirtyOrder = append(dirtyOrder, st)
			}
		}
	}

	crash := CrashStats{
		Enabled:             true,
		Journaled:           cfg.IntentJournal,
		CrashAt:             crashAt,
		PreCrashRequests:    int64(s.lat.Count()),
		PreCrash:            s.lat.Summarize(),
		InFlightLost:        s.inFlight,
		DirtyStripes:        len(dirtyOrder),
		TornPages:           tornPages,
		InconsistentStripes: len(inconsistent),
		ServedDuringResync:  !cfg.IntentJournal,
	}
	if s.trace.Enabled() {
		s.trace.Emit(crashAt, obs.Event{Kind: obs.KPowerLoss, Dev: -1, Page: -1,
			Aux: int64(crash.DirtyStripes), Aux2: int64(crash.InFlightLost)})
		for d, pages := range tornByDev {
			for _, lpn := range pages {
				s.trace.Emit(crashAt, obs.Event{Kind: obs.KTornWrite, Dev: int32(d),
					Page: int64(lpn), Pages: 1, Aux: int64(lpn / unitPages)})
			}
		}
	}

	// --- Remount, resync, serve the rest of the trace. ---
	remount := cfg
	remount.PowerLossAtMs = 0 // the remount runs to completion
	remount.ScrubMBps = 0     // its resync walk is the scrub
	remount.Fault = cfg.Fault.shiftPast(crashAt)
	sysB, err := New(remount)
	if err != nil {
		return nil, err
	}
	if err := sysB.start(); err != nil {
		return nil, err
	}
	// The remounted members need fault hooks even without a fault plan:
	// the torn pages are installed as CRC-failing defects. With a plan,
	// the controller owns the injectors; Tear goes through its set.
	var injs []*fault.Injector
	if sysB.faults != nil {
		injs = sysB.faults.Injectors()
	} else {
		injs = fault.Install(sysB.devs, remount.Fault.plan(remount.Seed))
	}
	for d, pages := range tornByDev {
		injs[d].Tear(pages)
	}

	// Resync scope: the journal's dirty list, or — journal off — every
	// stripe, walked in order.
	var stripes []int
	if cfg.IntentJournal {
		stripes = dirtyOrder
	} else {
		stripes = make([]int, lay.Stripes())
		for i := range stripes {
			stripes[i] = i
		}
	}
	rs, err := rebuild.NewResync(sysB.eng, sysB.arr, resyncMBps, cfg.Flash.PageSize, stripes)
	if err != nil {
		return nil, err
	}
	rs.Inconsistent = func(st int) bool { return inconsistent[st] }
	rs.Trace = sysB.trace

	// Suffix of the trace: arrivals after the cut, re-based to the remount.
	var suffix Trace
	for _, r := range tr {
		if r.Timestamp > crashAt {
			r.Timestamp -= crashAt
			suffix = append(suffix, r)
		}
	}

	if cfg.IntentJournal {
		sysB.resyncing = true // hold arrivals; journal off serves during the walk
	}
	rs.OnComplete = func(now sim.Time) {
		crash.ResyncDuration = now
		if sysB.resyncing {
			sysB.releaseHeld(now)
		}
	}
	if fn := s.onRequest; fn != nil {
		// Suffix requests continue the pre-cut submission indices.
		base := s.reqSeq
		sysB.onRequest = func(seq, latNs int64, rejected bool) { fn(base+seq, latNs, rejected) }
	}
	rs.Start(0)
	sysB.scheduleArrivals(suffix)
	sysB.eng.Run()
	res, err := sysB.finish()
	if err != nil {
		return nil, err
	}

	st := rs.Stats()
	crash.ResyncStripesWalked = st.StripesWalked
	crash.ResyncFound = st.Inconsistent
	crash.ResyncTornUnits = st.TornUnitsRepaired
	crash.ResyncPagesRead = st.PagesRead
	crash.ResyncPagesWritten = st.PagesWritten
	res.Crash = crash
	return res, nil
}

// overlapsSorted reports whether [page, page+pages) intersects any entry
// of the sorted page list.
func overlapsSorted(sorted []int, page, pages int) bool {
	i := sort.SearchInts(sorted, page)
	return i < len(sorted) && sorted[i] < page+pages
}

// shiftPast rewrites the fault plan for the remounted system: failures and
// slowdown windows that predate the cut re-apply at time zero (their
// effect — a missing member, a sick device — survives the power cycle;
// any rebuild progress does not), and later ones shift left by the cut.
func (p FaultPlan) shiftPast(crashAt sim.Time) FaultPlan {
	out := p
	out.Failures = nil
	out.Slowdowns = nil
	cutMs := float64(crashAt) / float64(sim.Millisecond)
	for _, f := range p.Failures {
		if f.AtMs <= cutMs {
			f.AtMs = 0
		} else {
			f.AtMs -= cutMs
		}
		out.Failures = append(out.Failures, f)
	}
	for _, s := range p.Slowdowns {
		if s.StartMs+s.DurationMs <= cutMs {
			continue // fully spent before the cut
		}
		if s.StartMs < cutMs {
			s.DurationMs -= cutMs - s.StartMs
			s.StartMs = 0
		} else {
			s.StartMs -= cutMs
		}
		out.Slowdowns = append(out.Slowdowns, s)
	}
	return out
}
