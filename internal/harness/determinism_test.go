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

// TestClusterDeterministicAcrossShardWorkers pins the fleet layer's
// determinism contract: shards replay on a bounded worker pool, but the
// pool size is pure parallelism — the same seed and configuration must
// produce byte-identical aggregated ClusterResults AND byte-identical
// merged traces with 1, 2, or 8 shard workers.
func TestClusterDeterministicAcrossShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	o := tinyOptions()
	o.MaxRequests = 1600
	sc := clusterScenarios()[2] // rebuild: exercises fault shards + steering
	run := func(workers int) (*cluster.ClusterResults, []byte) {
		c := clusterConfig(o, sc, cluster.PolicySteering)
		c.Workers = workers
		var buf bytes.Buffer
		c.Trace = &buf
		r, err := cluster.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	baseRes, baseTrace := run(1)
	if len(baseTrace) == 0 {
		t.Fatal("no trace emitted")
	}
	if !strings.HasPrefix(string(baseTrace), `{"t":`) {
		t.Fatalf("merged trace does not start with a JSON line: %.80s", baseTrace)
	}
	for _, workers := range []int{2, 8} {
		res, tr := run(workers)
		if !reflect.DeepEqual(baseRes, res) {
			t.Errorf("ClusterResults differ between 1 and %d workers:\n1: %s\n%d: %s",
				workers, baseRes, workers, res)
		}
		if !bytes.Equal(baseTrace, tr) {
			t.Errorf("merged traces differ between 1 and %d workers (%d vs %d bytes)",
				workers, len(baseTrace), len(tr))
		}
	}
}

// TestChaosDeterministicAcrossShardWorkers extends the fleet determinism
// contract to the failure-domain machinery: replication barriers, a chaos
// plan (crash + link slowdown + GC storm), failover, and re-replication
// all live in the offline router, so the shard worker count must still be
// pure parallelism — byte-identical results and traces at 1, 2, and 8
// workers.
func TestChaosDeterministicAcrossShardWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	o := tinyOptions()
	o.MaxRequests = 1600
	sc := chaosScenarios()[2] // chaos-storm: crash + link slowdown + GC storm
	run := func(workers int) (*cluster.ClusterResults, []byte) {
		c := chaosConfig(o, sc, true)
		c.Workers = workers
		var buf bytes.Buffer
		c.Trace = &buf
		r, err := cluster.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	baseRes, baseTrace := run(1)
	if len(baseTrace) == 0 {
		t.Fatal("no trace emitted")
	}
	if len(baseRes.Failures) == 0 {
		t.Fatal("chaos scenario compiled no crash")
	}
	for _, workers := range []int{2, 8} {
		res, tr := run(workers)
		if !reflect.DeepEqual(baseRes, res) {
			t.Errorf("chaos ClusterResults differ between 1 and %d workers:\n1: %s\n%d: %s",
				workers, baseRes, workers, res)
		}
		if !bytes.Equal(baseTrace, tr) {
			t.Errorf("chaos traces differ between 1 and %d workers (%d vs %d bytes)",
				workers, len(baseTrace), len(tr))
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
			cfg.RetryBackoffUs = 200
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
	if _, err := rebuildBandwidthMBps(capacity, 5, nil); err == nil {
		t.Error("empty trace must be an error, not a zero-duration division")
	}

	// A degenerate trace whose last arrival is at t=0 used to divide by
	// zero and request +Inf MB/s from the rebuilder.
	zero := gcsteering.Trace{{Timestamp: 0, Offset: 0, Size: 4096}}
	bw, err := rebuildBandwidthMBps(capacity, 5, zero)
	if err != nil {
		t.Fatalf("t=0 trace: %v", err)
	}
	if math.IsInf(bw, 0) || math.IsNaN(bw) || bw <= 0 {
		t.Fatalf("t=0 trace: bandwidth = %v, want finite positive", bw)
	}

	// A healthy trace: one member's share of the capacity spread over the
	// trace duration.
	tr := gcsteering.Trace{
		{Timestamp: 0, Offset: 0, Size: 4096},
		{Timestamp: 2_000_000_000, Offset: 4096, Size: 4096}, // 2 s
	}
	bw, err = rebuildBandwidthMBps(capacity, 5, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(capacity) / 4 / 1e6 / 2
	if math.Abs(bw-want) > 1e-9 {
		t.Fatalf("bandwidth = %v, want %v", bw, want)
	}
}
