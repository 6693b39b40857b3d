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
	for _, p := range s.pumps {
		if p.active {
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
	p := s.pumps[disk]
	if p.active {
		return
	}
	p.active = true
	s.eng.Defer(p.next)
}

// reclaimPump is one member disk's reclaim drain. A drain is started only
// when the pump is not active, so at most one merged run is in flight per
// disk and the pump owns the run, its entry snapshot and its completion
// callbacks: the callbacks are bound once in newReclaimPump and the
// snapshot buffer is resliced per run, so a drain step allocates nothing.
type reclaimPump struct {
	s      *Steering
	disk   int
	active bool // a drain is in progress
	run    Run
	snaps  []snap

	next      func(now sim.Time) // p.step
	writeHome func(now sim.Time) // p.write, joined over the staged reads
	finalize  func(now sim.Time) // p.commit, on the home write's completion
}

// snap is an entry snapshot taken when its run is issued, so a redirect
// that lands while the write-back is in flight is detected by generation.
type snap struct {
	key PageKey
	gen uint32
	loc StageLoc
}

func newReclaimPump(s *Steering, disk int) *reclaimPump {
	p := &reclaimPump{s: s, disk: disk}
	p.next, p.writeHome, p.finalize = p.step, p.write, p.commit
	return p
}

// step reclaims the next merged run for the pump's disk, then re-arms
// itself. It stops (and re-arms on the next GC-end event) when the disk
// re-enters collection or when no write entries remain.
func (p *reclaimPump) step(now sim.Time) {
	s, disk := p.s, p.disk
	if disk == s.failedHome {
		// The home member is gone; its entries stay staged until rebuilt.
		p.active = false
		return
	}
	if s.devs[disk].InGC(now) || s.unhealthy(now, disk) ||
		(s.rebuilding && !s.stagingPressure()) {
		// A quarantined home gets no write-back traffic either; the facade
		// kicks the drain again when the breaker closes (same hook as GC-end).
		p.active = false
		return
	}
	run, ok := s.dt.FirstWriteRunFor(int32(disk), s.cfg.ReclaimMerge)
	if !ok {
		p.active = false
		return
	}
	s.stats.ReclaimRuns++
	if s.Trace.Enabled() {
		s.Trace.Emit(now, obs.Event{Kind: obs.KReclaim,
			Dev: run.Disk, Page: int64(run.Page), Pages: run.Pages,
			Aux: int64(s.staging.FreeWriteSlots())})
	}

	p.run, p.snaps = run, p.snaps[:0]
	for i := int32(0); i < run.Pages; i++ {
		key := PageKey{Disk: run.Disk, Page: run.Page + i}
		e, ok := s.dt.Get(key)
		if !ok || !e.Write {
			continue // raced with a delete; skip
		}
		p.snaps = append(p.snaps, snap{key, e.Gen, e.Loc})
	}
	if len(p.snaps) == 0 {
		s.eng.Defer(p.next)
		return
	}

	// Read every staged page, then write the whole run home in one I/O.
	onRead := s.eng.Join(len(p.snaps), p.writeHome)
	for _, sn := range p.snaps {
		s.staging.Read(now, sn.loc, onRead)
	}
}

// write issues the run's home write once every staged page has been read.
func (p *reclaimPump) write(now sim.Time) {
	must(p.s.devs[p.disk].Write(now, int(p.run.Page), int(p.run.Pages), p.finalize))
}

// commit retires the written-back entries and steps to the next run.
func (p *reclaimPump) commit(now sim.Time) {
	s := p.s
	for _, sn := range p.snaps {
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
	p.step(now)
}
