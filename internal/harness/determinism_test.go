package harness

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"gcsteering"
	"gcsteering/internal/cluster"
)

// shardRuns are the fleet determinism cases: shard worker counts, each
// without and with a warm-up memo shared by the cell's shards (fresh per
// run, so the shards race to warm it).
var shardRuns = []struct {
	workers int
	memo    bool
}{{1, false}, {2, false}, {8, false}, {1, true}, {2, true}, {8, true}}

// TestClusterDeterministicAcrossShardWorkers pins the fleet layer's
// determinism contract: shards replay on a bounded worker pool, but the
// pool size is pure parallelism, and the warm-up memo is pure caching —
// the same seed and configuration must produce byte-identical aggregated
// ClusterResults AND byte-identical merged traces with 1, 2, or 8 shard
// workers, with or without the memo.
func TestClusterDeterministicAcrossShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	o := tinyOptions()
	o.MaxRequests = 1600
	sc := clusterScenarios()[2] // rebuild: exercises fault shards + steering
	run := func(workers int, memo bool) (*cluster.ClusterResults, []byte) {
		c := clusterConfig(o, sc, cluster.PolicySteering)
		c.Workers = workers
		if memo {
			c.Warmup = new(gcsteering.Warmup)
		}
		var buf bytes.Buffer
		c.Trace = &buf
		r, err := cluster.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	baseRes, baseTrace := run(1, false)
	if len(baseTrace) == 0 {
		t.Fatal("no trace emitted")
	}
	if !strings.HasPrefix(string(baseTrace), `{"t":`) {
		t.Fatalf("merged trace does not start with a JSON line: %.80s", baseTrace)
	}
	for _, sr := range shardRuns[1:] {
		res, tr := run(sr.workers, sr.memo)
		if !reflect.DeepEqual(baseRes, res) {
			t.Errorf("ClusterResults differ between 1 worker and %+v:\n1: %s\n%+v: %s",
				sr, baseRes, sr, res)
		}
		if !bytes.Equal(baseTrace, tr) {
			t.Errorf("merged traces differ between 1 worker and %+v (%d vs %d bytes)",
				sr, len(baseTrace), len(tr))
		}
	}
}

// TestChaosDeterministicAcrossShardWorkers extends the fleet determinism
// contract to the failure-domain machinery: replication barriers, a chaos
// plan (crash + link slowdown + GC storm), failover, and re-replication
// all live in the offline router, so the shard worker count must still be
// pure parallelism — byte-identical results and traces at 1, 2, and 8
// workers, with or without the warm-up memo.
func TestChaosDeterministicAcrossShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	o := tinyOptions()
	o.MaxRequests = 1600
	sc := chaosScenarios()[2] // chaos-storm: crash + link slowdown + GC storm
	run := func(workers int, memo bool) (*cluster.ClusterResults, []byte) {
		c := chaosConfig(o, sc, true)
		c.Workers = workers
		if memo {
			c.Warmup = new(gcsteering.Warmup)
		}
		var buf bytes.Buffer
		c.Trace = &buf
		r, err := cluster.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	baseRes, baseTrace := run(1, false)
	if len(baseTrace) == 0 {
		t.Fatal("no trace emitted")
	}
	if len(baseRes.Failures) == 0 {
		t.Fatal("chaos scenario compiled no crash")
	}
	for _, sr := range shardRuns[1:] {
		res, tr := run(sr.workers, sr.memo)
		if !reflect.DeepEqual(baseRes, res) {
			t.Errorf("chaos ClusterResults differ between 1 worker and %+v:\n1: %s\n%+v: %s",
				sr, baseRes, sr, res)
		}
		if !bytes.Equal(baseTrace, tr) {
			t.Errorf("chaos traces differ between 1 worker and %+v (%d vs %d bytes)",
				sr, len(baseTrace), len(tr))
		}
	}
}

// TestRobustZeroCostWhenHealthy asserts the robustness knobs' core promise:
// with no fault injected, enabling the health monitor, bounded retries, and
// admission control reproduces the baseline run byte-identically. The
// monitor observes synchronously and schedules engine events only when a
// breaker opens; the retry path draws nothing when no error fires; an
// unreached QueueLimit only counts in-flight requests — so a healthy array
// must not be able to tell the machinery is armed.
func TestRobustZeroCostWhenHealthy(t *testing.T) {
	run := func(armed bool) []byte {
		var buf bytes.Buffer
		cfg := tinyOptions().Base()
		cfg.Trace = gcsteering.NewTracer(&buf)
		if armed {
			cfg.Quarantine = true
			cfg.MaxRetries = 2
			cfg.QueueLimit = 4096
		}
		sys, err := gcsteering.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sys.GenerateWorkload("HPC_W", 400)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Replay(tr); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base, armed := run(false), run(true)
	if len(base) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(base, armed) {
		t.Fatalf("robustness knobs changed a healthy run (%d vs %d trace bytes)", len(base), len(armed))
	}
}

// TestTraceDeterministic asserts the tracer's byte stream is a pure function
// of (Config, seed): two identically configured systems replaying the same
// workload emit identical JSONL.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		cfg := tinyOptions().Base()
		cfg.Trace = gcsteering.NewTracer(&buf)
		sys, err := gcsteering.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sys.GenerateWorkload("HPC_W", 400)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Replay(tr); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	if !strings.HasPrefix(string(a), `{"t":`) {
		t.Errorf("trace does not start with a JSON line: %.80s", a)
	}
}

func TestRebuildBandwidthMBps(t *testing.T) {
	const capacity = int64(1 << 30) // 1 GiB across the array
	// Degenerate traces — none at all, or a last arrival at t=0 — used to
	// divide by zero and request +Inf MB/s from the rebuilder; their span
	// is floored instead.
	zero := gcsteering.Trace{{Timestamp: 0, Offset: 0, Size: 4096}}
	for _, tr := range []gcsteering.Trace{nil, zero} {
		if got := traceSeconds(tr); got != minTraceSeconds {
			t.Fatalf("traceSeconds(%d records at t=0) = %v, want the %v floor", len(tr), got, minTraceSeconds)
		}
	}
	bw := rebuildBandwidthMBps(capacity, 5, traceSeconds(zero))
	if math.IsInf(bw, 0) || math.IsNaN(bw) || bw <= 0 {
		t.Fatalf("t=0 trace: bandwidth = %v, want finite positive", bw)
	}

	// A healthy trace: one member's share of the capacity spread over the
	// trace duration.
	tr := gcsteering.Trace{
		{Timestamp: 0, Offset: 0, Size: 4096},
		{Timestamp: 2_000_000_000, Offset: 4096, Size: 4096}, // 2 s
	}
	if got := traceSeconds(tr); got != 2 {
		t.Fatalf("traceSeconds = %v, want 2", got)
	}
	bw = rebuildBandwidthMBps(capacity, 5, traceSeconds(tr))
	want := float64(capacity) / 4 / 1e6 / 2
	if math.Abs(bw-want) > 1e-9 {
		t.Fatalf("bandwidth = %v, want %v", bw, want)
	}
}
