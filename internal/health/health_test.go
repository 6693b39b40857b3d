package health

import (
	"testing"

	"gcsteering/internal/sim"
)

// feed folds n identical observations for dev at 1ms intervals.
func feed(eng *sim.Engine, m *Monitor, dev, n int, perPage sim.Time) {
	for i := 0; i < n; i++ {
		m.Observe(eng.Now(), dev, 1, perPage, false)
		eng.RunFor(sim.Millisecond)
	}
}

// warm gives every device of m a healthy baseline, past the warm-up.
func warm(eng *sim.Engine, m *Monitor, devs int) {
	for i := 0; i < minSamples+1; i++ {
		for d := 0; d < devs; d++ {
			m.Observe(eng.Now(), d, 1, 100*sim.Microsecond, false)
		}
		eng.RunFor(sim.Millisecond)
	}
}

func TestHealthyDevicesNeverQuarantine(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	warm(eng, m, 4)
	feed(eng, m, 0, 500, 120*sim.Microsecond)
	if m.OpenCount() != 0 || m.Stats().Quarantines != 0 {
		t.Fatalf("healthy array quarantined: open=%d stats=%+v", m.OpenCount(), m.Stats())
	}
	if eng.Pending() != 0 {
		t.Fatalf("healthy monitor scheduled %d engine events; must schedule none", eng.Pending())
	}
}

func TestSlowDeviceOpensAfterHysteresis(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	warm(eng, m, 4)
	opened := -1
	m.OnChange = func(now sim.Time, dev int, q bool) {
		if q {
			opened = dev
		}
	}
	// One slow op must not trip the breaker; a sustained run must.
	m.Observe(eng.Now(), 2, 1, 5*sim.Millisecond, false)
	if m.Quarantined(2) {
		t.Fatal("single slow op opened the breaker")
	}
	feed(eng, m, 2, openAfter-1, 5*sim.Millisecond)
	if !m.Quarantined(2) || opened != 2 {
		t.Fatalf("sustained slowness did not quarantine dev 2 (opened=%d)", opened)
	}
	if got := m.Stats().Quarantines; got != 1 {
		t.Fatalf("Quarantines = %d, want 1", got)
	}
	if m.OpenCount() != 1 {
		t.Fatalf("OpenCount = %d, want 1", m.OpenCount())
	}
}

func TestProbeReinstatesWhenClean(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	probes := 0
	m.Probe = func(now sim.Time, dev int) {
		probes++
		// The device recovered: the probe observes a healthy latency.
		m.Observe(now, dev, 1, 110*sim.Microsecond, false)
	}
	warm(eng, m, 4)
	feed(eng, m, 1, openAfter, 5*sim.Millisecond)
	if !m.Quarantined(1) {
		t.Fatal("dev 1 not quarantined")
	}
	eng.Run() // fire the half-open timer
	if probes != 1 {
		t.Fatalf("probes = %d, want 1", probes)
	}
	if m.Quarantined(1) {
		t.Fatal("clean probe did not reinstate")
	}
	st := m.Stats()
	if st.Reinstatements != 1 || st.Probes != 1 || st.ProbeFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QuarantineTime <= 0 {
		t.Fatalf("QuarantineTime = %v, want > 0", st.QuarantineTime)
	}
}

func TestFailedProbeReopensWithBackoff(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	var opened sim.Time
	m.OnChange = func(now sim.Time, dev int, q bool) {
		if q {
			opened = now
		}
	}
	var probeTimes []sim.Time
	m.Probe = func(now sim.Time, dev int) {
		probeTimes = append(probeTimes, now)
		// First probe still sees the slowness; the second finds it gone.
		lat := 110 * sim.Microsecond
		if len(probeTimes) == 1 {
			lat = 5 * sim.Millisecond
		}
		m.Observe(now, dev, 1, lat, false)
	}
	warm(eng, m, 4)
	feed(eng, m, 3, openAfter, 5*sim.Millisecond)
	if !m.Quarantined(3) {
		t.Fatal("dev 3 not quarantined")
	}
	eng.Run() // first probe fails, the retry reinstates
	if len(probeTimes) != 2 {
		t.Fatalf("probes = %d, want a failed probe then a retry", len(probeTimes))
	}
	if m.Quarantined(3) {
		t.Fatal("recovered device never reinstated")
	}
	gap1 := probeTimes[0] - opened
	gap2 := probeTimes[1] - probeTimes[0]
	if gap2 != 2*gap1 {
		t.Fatalf("backoff did not double: first %v then %v", gap1, gap2)
	}
	if st := m.Stats(); st.ProbeFailures != 1 || st.Quarantines != 2 {
		t.Fatalf("stats = %+v, want exactly one re-open", st)
	}
}

func TestBackoffCapped(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 2)
	var probeTimes []sim.Time
	m.Probe = func(now sim.Time, dev int) {
		probeTimes = append(probeTimes, now)
		if len(probeTimes) >= 8 {
			m.Observe(now, dev, 1, 100*sim.Microsecond, false) // recover
			return
		}
		m.Observe(now, dev, 1, 50*sim.Millisecond, false)
	}
	warm(eng, m, 2)
	feed(eng, m, 0, 20, 50*sim.Millisecond)
	if !m.Quarantined(0) {
		t.Fatal("dev 0 not quarantined")
	}
	eng.Run()
	for i := 1; i < len(probeTimes); i++ {
		if gap := probeTimes[i] - probeTimes[i-1]; gap > maxBackoff {
			t.Fatalf("probe gap %v exceeds maxBackoff %v", gap, maxBackoff)
		}
	}
}

func TestGCObservationsIgnoredWhenClosed(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	warm(eng, m, 4)
	// Huge latencies observed mid-GC must not strike.
	for i := 0; i < 100; i++ {
		m.Observe(eng.Now(), 1, 1, 50*sim.Millisecond, true)
		eng.RunFor(sim.Millisecond)
	}
	if m.Quarantined(1) || m.Stats().Quarantines != 0 {
		t.Fatal("GC-period latency tripped the breaker")
	}
}

func TestResetClearsQuarantine(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	warm(eng, m, 4)
	feed(eng, m, 2, openAfter, 5*sim.Millisecond)
	if !m.Quarantined(2) {
		t.Fatal("dev 2 not quarantined")
	}
	m.Reset(eng.Now(), 2)
	if m.Quarantined(2) || m.OpenCount() != 0 {
		t.Fatal("Reset left the breaker open")
	}
	if st := m.Stats(); st.Reinstatements != 0 {
		t.Fatalf("Reset counted a reinstatement: %+v", st)
	}
	eng.Run() // the stale half-open timer must be a no-op
	if m.Quarantined(2) {
		t.Fatal("stale half-open timer resurrected the breaker")
	}
}

func TestFinishChargesOpenTime(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 4)
	warm(eng, m, 4)
	feed(eng, m, 0, openAfter, 5*sim.Millisecond)
	if !m.Quarantined(0) {
		t.Fatal("dev 0 not quarantined")
	}
	eng.RunFor(5 * sim.Millisecond)
	before := m.Stats().QuarantineTime
	m.Finish(eng.Now())
	after := m.Stats().QuarantineTime
	if after <= before {
		t.Fatalf("Finish charged nothing: before %v after %v", before, after)
	}
	m.Finish(eng.Now())
	if m.Stats().QuarantineTime != after {
		t.Fatal("Finish is not idempotent")
	}
}
