package core

import (
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

// The Reclaimer drains redirected write data back to its home location
// once the home disk finishes garbage collection (§III-C). The drain is
// deliberately serial — one merged run at a time — so reclaim traffic
// trickles into the home disk instead of re-creating the contention the
// steering just avoided. Parity was already updated in place when the
// write was redirected, so write-back touches only the home data unit.

// OnDeviceGCEnd is the hook the facade wires to the sched.Hub's GC-end
// events: when disk finishes collecting, its redirected data drains back.
func (s *Steering) OnDeviceGCEnd(now sim.Time, disk int) {
	if s.rebuilding && !s.stagingPressure() {
		return // reclaim resumes after reconstruction completes (§III-D)
	}
	s.drain(now, disk)
}

// DrainAll starts a drain on every member disk (used when reconstruction
// completes and at the end of an experiment to flush the staging space).
func (s *Steering) DrainAll(now sim.Time) {
	for d := range s.devs {
		s.drain(now, d)
	}
}

// Draining reports whether any disk still has an active drain or pending
// reclaimable write entries (entries homed on a failed member are not
// reclaimable until it is rebuilt and do not count).
func (s *Steering) Draining() bool {
	for _, d := range s.draining {
		if d {
			return true
		}
	}
	if s.failedHome < 0 {
		return s.dt.WriteLen() > 0
	}
	for d := range s.devs {
		if d == s.failedHome {
			continue
		}
		if _, ok := s.dt.FirstWriteRunFor(int32(d), false); ok {
			return true
		}
	}
	return false
}

func (s *Steering) drain(now sim.Time, disk int) {
	if s.draining[disk] {
		return
	}
	s.draining[disk] = true
	//lint:allow hotalloc one kick-off closure per drain start, bounded by GC episodes, not per request
	s.eng.Defer(func(t sim.Time) { s.drainNext(t, disk) })
}

// drainNext reclaims the next merged run for disk, then re-arms itself.
// It stops (and re-arms on the next GC-end event) when the disk re-enters
// collection or when no write entries remain.
//
// gcsvet: the reclaim pump runs deferred, one merged run per step, a
// bounded number of times per GC episode — off the per-request path, so
// it is a cold boundary for hotalloc.
//
//gcsvet:cold
func (s *Steering) drainNext(now sim.Time, disk int) {
	if disk == s.failedHome {
		// The home member is gone; its entries stay staged until rebuilt.
		s.draining[disk] = false
		return
	}
	if s.devs[disk].InGC(now) || s.unhealthy(now, disk) ||
		(s.rebuilding && !s.stagingPressure()) {
		// A quarantined home gets no write-back traffic either; the facade
		// kicks the drain again when the breaker closes (same hook as GC-end).
		s.draining[disk] = false
		return
	}
	run, ok := s.dt.FirstWriteRunFor(int32(disk), s.cfg.ReclaimMerge)
	if !ok {
		s.draining[disk] = false
		return
	}
	s.stats.ReclaimRuns++
	if s.Trace.Enabled() {
		s.Trace.Emit(now, obs.Event{Kind: obs.KReclaim,
			Dev: run.Disk, Page: int64(run.Page), Pages: run.Pages,
			Aux: int64(s.staging.FreeWriteSlots())})
	}

	// Snapshot the entries so concurrent redirects are detected.
	type snap struct {
		key PageKey
		gen uint32
		loc StageLoc
	}
	snaps := make([]snap, 0, run.Pages)
	for i := int32(0); i < run.Pages; i++ {
		key := PageKey{Disk: run.Disk, Page: run.Page + i}
		e, ok := s.dt.Get(key)
		if !ok || !e.Write {
			continue // raced with a delete; skip
		}
		snaps = append(snaps, snap{key, e.Gen, e.Loc})
	}
	if len(snaps) == 0 {
		s.eng.Defer(func(t sim.Time) { s.drainNext(t, disk) })
		return
	}

	finalize := func(t sim.Time) {
		for _, sn := range snaps {
			cur, ok := s.dt.Get(sn.key)
			if !ok || cur.Gen != sn.gen {
				// A newer redirect superseded this write-back; the entry
				// (and its newer staging copy) stays live.
				s.stats.ReclaimSkippedStale++
				continue
			}
			s.staging.Free(sn.loc)
			s.dt.Delete(sn.key)
			s.stats.ReclaimedPages++
		}
		s.drainNext(t, disk)
	}

	// Read every staged page, then write the whole run home in one I/O.
	onRead := s.eng.Join(len(snaps), func(t sim.Time) {
		must(s.devs[disk].Write(t, int(run.Page), int(run.Pages), finalize))
	})
	for _, sn := range snaps {
		s.staging.Read(now, sn.loc, onRead)
	}
}
