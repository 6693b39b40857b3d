// Package health implements a deterministic per-device health monitor and
// circuit breaker. It generalizes the paper's GC-awareness to
// health-awareness: a member whose op latency stays far above its peers' —
// for any reason the array cannot see directly, such as an internal
// firmware stall or a degrading flash die — produces the same tail-latency
// contention as a member busy with GC, so an open breaker feeds the
// steering redirector exactly like a GC signal.
//
// The monitor is fed per-op observations from ssd.Device's OnOp hook (via
// sched.Hub), synchronously with each op issue. It keeps an EWMA of
// per-page op latency for every member and compares each member against
// the mean of the others: a device whose EWMA exceeds slowFactor times its
// peers' (and an absolute floor, so a quiet array never trips) earns a
// strike; openAfter consecutive strikes open the breaker
// (closed → open). An open breaker schedules exactly one engine event — the
// half-open probe — so a healthy array runs with zero extra events and
// byte-identical traces whether the monitor is enabled or not.
//
// At the half-open instant the monitor issues a one-page probe read (with a
// nil completion, so the probe itself schedules nothing) and judges the
// resulting observation: a clean probe closes the breaker (reinstatement),
// a slow one re-opens it with doubled backoff, up to a cap. Observations
// taken while a device is mid-GC are ignored in the closed state — GC
// episodes are a known, already-steered-around condition, and letting them
// trip the breaker would quarantine healthy members — but a half-open
// probe always judges, so the breaker cannot get stuck.
package health

import (
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

// The monitor's thresholds.
const (
	// alpha is the EWMA smoothing factor in (0, 1]; larger reacts faster.
	alpha = 0.3
	// slowFactor is how many times slower than the mean of its peers a
	// member's EWMA must be to earn a strike.
	slowFactor = 4
	// openAfter is how many consecutive strikes open the breaker; the
	// hysteresis that keeps one slow op from quarantining a device.
	openAfter = 12
	// minSamples is the per-device warm-up: no strikes until this many
	// observations have been folded into the EWMA.
	minSamples = 32
	// minLatency is an absolute per-page latency floor for a strike, so a
	// lightly-loaded array with tiny absolute spreads never quarantines
	// anyone.
	minLatency = 500 * sim.Microsecond
	// reinstateFactor is the closing threshold: a half-open probe only
	// reinstates the device when its per-page latency is within this
	// factor of the least-loaded peer's EWMA (or under minLatency).
	// Keeping it well below slowFactor gives the breaker hysteresis —
	// a symmetric threshold would flap the breaker, reinstating on a
	// relatively-clean-looking probe and re-striking as soon as real
	// traffic returns.
	reinstateFactor = 1.5
	// backoff is the open → half-open delay, doubling on every failed
	// probe up to maxBackoff.
	backoff    = 10 * sim.Millisecond
	maxBackoff = 160 * sim.Millisecond
)

// Stats aggregates the monitor's cumulative activity.
type Stats struct {
	// Quarantines counts breaker openings (re-opens after a failed probe
	// included).
	Quarantines int64
	// Reinstatements counts breakers closed by a clean probe.
	Reinstatements int64
	// Probes counts half-open probe judgements; ProbeFailures those that
	// re-opened the breaker.
	Probes        int64
	ProbeFailures int64
	// QuarantineTime is total device-time spent quarantined (summed over
	// devices).
	QuarantineTime sim.Time
}

type breakerState uint8

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

type devState struct {
	ewma     float64 // per-page op latency estimate (ns)
	samples  int
	strikes  int
	state    breakerState
	openedAt sim.Time
	reopens  int // consecutive opens without a clean probe
	openSeq  int // invalidates stale half-open timers
}

// Monitor watches one array's members. It is driven synchronously by the
// single-threaded simulation engine; all state advances on simulated time.
type Monitor struct {
	eng   *sim.Engine
	devs  []devState
	open  int // devices currently open or half-open
	stats Stats

	// Trace, when non-nil, receives quarantine lifecycle events.
	Trace *obs.Tracer
	// Probe, when non-nil, issues a one-page probe op on dev; the resulting
	// Observe call is the half-open judgement. Without it the breaker waits
	// for natural traffic to judge.
	Probe func(now sim.Time, dev int)
	// OnChange, when non-nil, fires on every breaker transition between
	// quarantined (open/half-open) and closed.
	OnChange func(now sim.Time, dev int, quarantined bool)
}

// NewMonitor returns a monitor for n devices.
func NewMonitor(eng *sim.Engine, n int) *Monitor {
	return &Monitor{eng: eng, devs: make([]devState, n)}
}

// Quarantined reports whether dev's breaker is open or half-open — the
// signal steering and hedging consume.
func (m *Monitor) Quarantined(dev int) bool {
	return dev >= 0 && dev < len(m.devs) && m.devs[dev].state != stClosed
}

// OpenCount returns how many devices are currently quarantined.
func (m *Monitor) OpenCount() int { return m.open }

// Stats returns a snapshot of the cumulative statistics. Call Finish first
// to close the books on still-open breakers.
func (m *Monitor) Stats() Stats { return m.stats }

// othersMean returns the mean EWMA of every warmed-up device except dev,
// or 0 when no peer has samples yet.
func (m *Monitor) othersMean(dev int) float64 {
	var sum float64
	n := 0
	for i := range m.devs {
		if i == dev || m.devs[i].samples == 0 {
			continue
		}
		sum += m.devs[i].ewma
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// othersMin returns the smallest EWMA among warmed-up devices other than
// dev, or 0 when no peer has samples yet.
func (m *Monitor) othersMin(dev int) float64 {
	best := 0.0
	for i := range m.devs {
		if i == dev || m.devs[i].samples == 0 {
			continue
		}
		if best == 0 || m.devs[i].ewma < best {
			best = m.devs[i].ewma
		}
	}
	return best
}

// slow reports whether a per-page latency (ns) is a strike against dev:
// far above the peers' mean and above the absolute floor.
func (m *Monitor) slow(dev int, perPage float64) bool {
	peers := m.othersMean(dev)
	return peers > 0 && perPage > slowFactor*peers && perPage > float64(minLatency)
}

// Observe folds one op observation into dev's health state. inGC marks
// observations taken while the device is mid-GC: those update nothing in
// the closed state (GC latency is a known condition, already steered
// around) but still judge a half-open probe so the breaker cannot stall.
// Latency should be the op's own service time, queueing excluded (the
// ssd.Device hook's service value): a burst backlog inflates completion
// latency on a perfectly healthy member, and feeding that in would let
// load skew open breakers. pages is the op size; the monitor normalizes
// to per-page latency so mixed op sizes compare.
func (m *Monitor) Observe(now sim.Time, dev int, pages int, latency sim.Time, inGC bool) {
	if dev < 0 || dev >= len(m.devs) || pages <= 0 {
		return
	}
	s := &m.devs[dev]
	perPage := float64(latency) / float64(pages)
	if s.state == stHalfOpen {
		m.judgeProbe(now, dev, perPage)
		return
	}
	if inGC {
		return
	}
	if s.samples == 0 {
		s.ewma = perPage
	} else {
		s.ewma += alpha * (perPage - s.ewma)
	}
	s.samples++
	if s.state != stClosed {
		return
	}
	if s.samples <= minSamples || !m.slow(dev, s.ewma) {
		s.strikes = 0
		return
	}
	s.strikes++
	if s.strikes >= openAfter {
		m.openBreaker(now, dev)
	}
}

// openBreaker transitions dev to open and schedules the half-open probe —
// the monitor's only engine event.
func (m *Monitor) openBreaker(now sim.Time, dev int) {
	s := &m.devs[dev]
	wasClosed := s.state == stClosed
	s.strikes = 0
	s.state = stOpen
	if wasClosed {
		s.openedAt = now
		m.open++
	}
	m.stats.Quarantines++
	if m.Trace.Enabled() {
		m.Trace.Emit(now, obs.Event{Kind: obs.KQuarantine, Dev: int32(dev),
			Page: -1, Aux: int64(s.ewma), Aux2: int64(s.reopens)})
	}
	wait := backoff << s.reopens
	if wait > maxBackoff || wait <= 0 {
		wait = maxBackoff
	}
	s.reopens++
	s.openSeq++
	seq := s.openSeq
	if wasClosed && m.OnChange != nil {
		m.OnChange(now, dev, true)
	}
	m.eng.At(now+wait, func(t sim.Time) { m.halfOpen(t, dev, seq) })
}

// halfOpen transitions dev to half-open and issues the probe op. The probe
// completes synchronously into Observe, which judges it.
func (m *Monitor) halfOpen(now sim.Time, dev int, seq int) {
	s := &m.devs[dev]
	if s.state != stOpen || s.openSeq != seq {
		return
	}
	s.state = stHalfOpen
	if m.Probe != nil {
		m.Probe(now, dev)
	}
}

// judgeProbe settles a half-open breaker on one observation: clean closes
// it, slow re-opens with doubled backoff.
func (m *Monitor) judgeProbe(now sim.Time, dev int, perPage float64) {
	s := &m.devs[dev]
	m.stats.Probes++
	// Judge against the least-loaded peer, not the mean: under a burst every
	// member's EWMA is inflated by queueing, and a mean-relative threshold
	// reinstates a still-slow device exactly when the array is busiest. The
	// minimum approximates the intrinsic device latency; the minLatency
	// floor keeps a quiet array from holding a recovered device hostage.
	floor := float64(minLatency)
	if peer := m.othersMin(dev); peer > 0 && reinstateFactor*peer > floor {
		floor = reinstateFactor * peer
	}
	clean := perPage <= floor
	if m.Trace.Enabled() {
		m.Trace.Emit(now, obs.Event{Kind: obs.KHealthProbe, Dev: int32(dev),
			Page: -1, Aux: int64(perPage), Aux2: boolInt(clean)})
	}
	if !clean {
		m.stats.ProbeFailures++
		m.openBreaker(now, dev)
		return
	}
	s.state = stClosed
	s.strikes = 0
	s.reopens = 0
	// Restart the EWMA from the clean probe: the quarantine-era estimate is
	// saturated with fail-slow samples and would immediately re-strike. The
	// warm-up is NOT restarted — the device is no stranger, and if the
	// reinstatement was wrong the breaker should re-open within openAfter
	// ops, not minSamples+openAfter.
	s.ewma = perPage
	s.samples = minSamples + 1
	m.open--
	held := now - s.openedAt
	m.stats.QuarantineTime += held
	m.stats.Reinstatements++
	if m.Trace.Enabled() {
		m.Trace.Emit(now, obs.Event{Kind: obs.KReinstate, Dev: int32(dev),
			Page: -1, Aux: int64(held)})
	}
	if m.OnChange != nil {
		m.OnChange(now, dev, false)
	}
}

// Reset force-closes dev's breaker without counting a reinstatement — for
// members that leave the array (whole-device failure supersedes fail-slow).
func (m *Monitor) Reset(now sim.Time, dev int) {
	if dev < 0 || dev >= len(m.devs) {
		return
	}
	s := &m.devs[dev]
	if s.state != stClosed {
		m.open--
		m.stats.QuarantineTime += now - s.openedAt
		if m.OnChange != nil {
			m.OnChange(now, dev, false)
		}
	}
	*s = devState{openSeq: s.openSeq + 1}
}

// Finish closes the books at the end of a run: still-open quarantine time
// is charged up to now. Idempotent.
func (m *Monitor) Finish(now sim.Time) {
	for i := range m.devs {
		s := &m.devs[i]
		if s.state != stClosed && now > s.openedAt {
			m.stats.QuarantineTime += now - s.openedAt
			s.openedAt = now
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
