package gcsteering

import "testing"

// TestSettleOnceWithPooledSlots drives every path that shares a pooled
// request slot or array record at once — deadlines that fire, admission
// rejections, hedged reads, transient-error retries and a mid-run member
// failure — and requires that every arrival settles exactly once and that
// the books balance.
func TestSettleOnceWithPooledSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadlineUs = 4000
	cfg.QueueLimit = 16
	cfg.HedgedReads = true
	cfg.MaxRetries = 2
	cfg.Fault.TransientReadErrorRate = 0.02
	cfg.Fault.Failures = []DiskFault{{Disk: 1, AtMs: 1000}}
	// A fail-slow member triggers hedges and backs the queue up.
	cfg.Fault.Slowdowns = []DiskSlowdown{{Disk: 3, Channel: -1, DurationMs: 1e4, ExtraPerOpUs: 1500}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("Fin1", 3000)
	if err != nil {
		t.Fatal(err)
	}
	settles := make([]int, len(tr))
	observed, rejected := 0, 0
	sys.ObserveRequests(func(seq, latNs int64, rej bool) {
		settles[seq]++
		if rej {
			rejected++
		} else {
			observed++
		}
	})
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	for seq, n := range settles {
		if n != 1 {
			t.Fatalf("request %d settled %d times", seq, n)
		}
	}
	rb := res.Robust
	for name, v := range map[string]int64{
		"deadline hits":    rb.DeadlineExceeded,
		"rejections":       rb.Rejected,
		"hedged reads":     res.Integrity.HedgedReads,
		"retries":          rb.Retries,
		"member failures":  res.Fault.Failures,
		"cancelled subops": rb.CanceledSubOps,
	} {
		if v == 0 {
			t.Errorf("no %s: the run does not exercise that path", name)
		}
	}
	// Deadline-settled requests record the deadline as their response
	// time, so Latency counts completions and deadline hits together.
	completed := int64(res.Latency.Count) - rb.DeadlineExceeded
	if got := completed + rb.Rejected + rb.DeadlineExceeded; got != int64(len(tr)) {
		t.Fatalf("completed %d + rejected %d + deadline %d = %d, want %d arrivals",
			completed, rb.Rejected, rb.DeadlineExceeded, got, len(tr))
	}
	if int64(observed) != int64(res.Latency.Count) || int64(rejected) != rb.Rejected {
		t.Fatalf("hook saw %d settled / %d rejected, results say %d / %d",
			observed, rejected, res.Latency.Count, rb.Rejected)
	}
}

// TestManyRetriesRunToCompletion replays a config whose doubling retry
// backoff would overflow the clock after a few dozen attempts (200 µs
// doubled 200 times): the backoff saturates at the simulation horizon
// instead, and the run finishes.
func TestManyRetriesRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 3000 requests with up to 200 retries per read")
	}
	cfg := DefaultConfig()
	cfg.MaxRetries = 200
	cfg.Fault.TransientReadErrorRate = 0.999
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("Fin1", 3000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Robust.RetriesExhausted == 0 {
		t.Fatalf("no read exhausted its retries: %+v", res.Robust)
	}
	if int(res.Latency.Count) != len(tr) {
		t.Fatalf("%d of %d requests settled", res.Latency.Count, len(tr))
	}
}
