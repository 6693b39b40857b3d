package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"syscall"
	"time"

	"gcsteering"
)

// Which metric sets a run measures (the -trace flag).
const (
	modeBoth   = -1 // full run: end-to-end, then the traced run
	modeE2E    = 0  // untraced reps only: the end-to-end metrics
	modeLayers = 1  // the traced run: the per-layer metrics
)

// workloadDef is one benchmark workload. A replay workload builds a fresh
// System per rep and replays one generated trace; a grid workload runs a
// whole experiment grid of the harness.
type workloadDef struct {
	name, why string

	// Replay workloads: Table I profile, trace length, and the scheme
	// timed. The steering ratio compares GC-Steering with LGC on the same
	// trace, running whichever of the two is not timed once per run.
	profile  string
	requests int
	scheme   gcsteering.Scheme

	// Grid workloads: the harness experiment; requests is per cell.
	grid *gridSpec
}

// workloads is the benchmark, in run order. All use gcsteering's default
// array: RAID5 over 5 SSDs with a 64 KiB unit, prefilled and 50%
// overwritten so GC is in steady state from the first request.
var workloads = []workloadDef{
	{name: "hpc_w", profile: "HPC_W", requests: 20_000, scheme: gcsteering.SchemeSteering,
		why: "write-heavy 510 KiB requests under GC-Steering: full-stripe fan-out, constant GC, most GC-period pages redirected and reclaimed"},
	{name: "hpc_r", profile: "HPC_R", requests: 20_000, scheme: gcsteering.SchemeSteering,
		why: "same request size and arrivals with 80% reads: the read paths of raid and core (hot-read migration, D_Table lookups) with 4x less GC"},
	{name: "fin1_lgc", profile: "Fin1", requests: 300_000, scheme: gcsteering.SchemeLGC,
		why: "small 12 KiB OLTP requests under LGC: per-request fixed cost and RMW splits dominate, steering does no work"},
	{name: "fig7_grid", requests: 3_000, grid: &fig7Spec,
		why: "Fig. 7 grid, 8 profiles x {LGC, GGC, GC-Steering}: 24 set-ups, the worker pool, and the only GGC run"},
	{name: "fleet", requests: 3_000, grid: &fleetSpec,
		why: "fleet grid, 3 scenarios x {hash-only, gc-aware} over 8 arrays x 16 tenants: cluster routing, rebuild, ~40 live devices"},
}

// measurer runs workloads under one set of flags.
type measurer struct {
	seed    int64
	seconds float64
	quick   bool
	mode    int
	nproc   int

	spans    *spanLog
	profiles map[string][]byte // workload name -> CPU profile
}

// wlRun is one workload's measurements and check results.
type wlRun struct {
	def       *workloadDef
	out       samples
	attempted int64
	failed    int64
	failures  []string

	spinBefore, spinAfter time.Duration
}

func (r *wlRun) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *wlRun) correct() bool { return len(r.failures) == 0 }

// scaled returns the workload's request count, 1/20 of it for -quick.
func (m *measurer) scaled(n int) int {
	if m.quick {
		return n / 20
	}
	return n
}

// moreReps reports whether another timed rep should run: -quick runs two,
// the traced run three, and the end-to-end run at least three and then
// until its measuring time is used up.
func (m *measurer) moreReps(done int, start time.Time) bool {
	switch {
	case m.quick:
		return done < 2
	case m.mode == modeLayers:
		return done < 3
	default:
		return done < 3 || time.Since(start).Seconds() < m.seconds
	}
}

// measure runs one workload under the measurer's mode.
func (m *measurer) measure(w *workloadDef) *wlRun {
	r := &wlRun{def: w, out: samples{}}
	m.spans.workload = w.name
	r.spinBefore = spin()
	var err error
	if w.grid != nil {
		err = m.runGrid(w, r)
	} else {
		err = m.runReplay(w, r)
	}
	if err == nil && m.mode != modeE2E {
		err = m.runMicro(r.out)
	}
	if err != nil {
		r.fail("%v", err)
	}
	r.spinAfter = spin()
	return r
}

// profile repeats body under the CPU profiler until enough samples exist,
// then records each layer's share of them. -quick skips profiling.
func (m *measurer) profile(w *workloadDef, r *wlRun, body func() error) error {
	if m.quick {
		return nil
	}
	dur := math.Max(4, m.seconds/2)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	sp := m.spans.begin("profiled reps", 0)
	start := time.Now()
	var err error
	for first := true; err == nil && (first || time.Since(start).Seconds() < dur); first = false {
		err = body()
	}
	m.spans.end(sp)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.out.add("cpu."+l, shares[l])
	}
	r.out.add("cpu.samples", float64(n))
	m.profiles[w.name] = buf.Bytes()
	return nil
}

// stopwatch reads wall-clock and process CPU time at one instant.
type stopwatch struct {
	wall time.Time
	cpu  int64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuNs()} }

// elapsed returns the wall-clock and CPU nanoseconds since the watch
// started.
func (s stopwatch) elapsed() (wall, cpu int64) {
	return time.Since(s.wall).Nanoseconds(), cpuNs() - s.cpu
}

// cpuNs is the process's CPU time so far: user plus system time over all
// threads, so the garbage collector's background work counts. Unlike wall
// time it does not grow while the process waits for a CPU another process
// holds.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// spin times a fixed CPU-bound loop: the noise guard compares it before
// and after each workload to flag runs that shared the CPU.
func spin() time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		x := xorshift(9)
		for j := 0; j < 1<<24; j++ {
			x.next()
		}
		spinSink = uint64(x)
		if el := time.Since(t0); el < best {
			best = el
		}
	}
	return best
}

// spinSink keeps the spin loop's result live.
var spinSink uint64
