package cluster

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"gcsteering"
)

// tinyBase shrinks the per-array geometry so fleet tests run in seconds.
func tinyBase() gcsteering.Config {
	cfg := gcsteering.DefaultConfig()
	cfg.Flash.Blocks = 128
	cfg.Flash.PagesPerBlock = 64
	cfg.Flash.OverProvision = 0.2
	cfg.GCLowWater = 4
	cfg.GCHighWater = 10
	return cfg
}

func tinyTenants(n, requests int) []Tenant {
	profiles := []string{"Fin1", "hm_0", "prxy_0", "HPC_R"}
	qos := []QoS{Gold, Silver, Bronze}
	out := make([]Tenant, n)
	for i := range out {
		out[i] = Tenant{
			Name:     "t" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Profile:  profiles[i%len(profiles)],
			QoS:      qos[i%len(qos)],
			Requests: requests,
			Volumes:  1 + i%2,
		}
	}
	return out
}

func TestRingLookup(t *testing.T) {
	r := newRing(8, 64)
	hits := make([]int, 8)
	for i := 0; i < 256; i++ {
		key := "vol/" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		p1, r1 := r.lookup(key)
		p2, r2 := r.lookup(key)
		if p1 != p2 || r1 != r2 {
			t.Fatalf("lookup(%q) unstable: (%d,%d) vs (%d,%d)", key, p1, r1, p2, r2)
		}
		if p1 == r1 {
			t.Fatalf("lookup(%q): replica equals primary %d", key, p1)
		}
		hits[p1]++
	}
	for a, n := range hits {
		if n == 0 {
			t.Fatalf("array %d received no keys: %v", a, hits)
		}
	}
}

func TestRingSingleArrayReplicaDegenerate(t *testing.T) {
	r := newRing(1, 16)
	p, rep := r.lookup("x")
	if p != 0 || rep != 0 {
		t.Fatalf("one-array ring: got (%d,%d)", p, rep)
	}
}

// TestRingEmptyLookupDoesNotPanic pins the degenerate-ring fix: a ring with
// no points (zero arrays or zero vnodes) used to index r.points[0] and
// panic. Config validation rejects such fleets, and lookup itself now
// degrades to array 0 as a backstop for direct callers.
func TestRingEmptyLookupDoesNotPanic(t *testing.T) {
	for _, r := range []*ring{newRing(0, 64), newRing(4, 0), newRing(0, 0)} {
		p, rep := r.lookup("tenant/vol")
		if p != 0 || rep != 0 {
			t.Fatalf("empty ring lookup: got (%d,%d), want (0,0)", p, rep)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := tinyBase()
	good := Config{Arrays: 2, Base: base, Tenants: tinyTenants(1, 10)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"one array", func(c *Config) { c.Arrays = 1 }},
		{"zero arrays", func(c *Config) { c.Arrays = 0 }},
		{"no tenants", func(c *Config) { c.Tenants = nil }},
		{"bad profile", func(c *Config) { c.Tenants = []Tenant{{Name: "x", Profile: "nope", Requests: 1}} }},
		{"no requests", func(c *Config) { c.Tenants = []Tenant{{Name: "x", Profile: "Fin1"}} }},
		{"fault array range", func(c *Config) { c.FaultArrays = []int{9} }},
		{"directory range", func(c *Config) { c.Directory = map[string]int{"x/0": -1} }},
		// Durations must be finite, non-negative and within sim.Horizon
		// once converted to engine ns; these used to fail deep inside a
		// shard, or complete with an overflowed recovery instant.
		{"fault at NaN", func(c *Config) { c.ArrayFaults = []ArrayFault{{Array: 1, AtMs: math.NaN()}} }},
		{"fault at past horizon", func(c *Config) { c.ArrayFaults = []ArrayFault{{Array: 1, AtMs: 1e300}} }},
		{"fault downtime past horizon", func(c *Config) { c.ArrayFaults = []ArrayFault{{Array: 1, AtMs: 1, DowntimeMs: 1e300}} }},
		{"link past horizon", func(c *Config) { c.ReplicaLinkUs = 1e300 }},
	} {
		c := good
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func TestRunHashPolicyConservation(t *testing.T) {
	c := Config{
		Arrays:  4,
		Policy:  PolicyHash,
		Workers: 2,
		Base:    tinyBase(),
		Tenants: tinyTenants(6, 150),
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, tn := range c.Tenants {
		want += int64(tn.Requests)
	}
	if r.Requests+r.Shed != want {
		t.Fatalf("admitted %d + shed %d != generated %d", r.Requests, r.Shed, want)
	}
	if r.Redirects != 0 {
		t.Fatalf("hash policy redirected %d requests", r.Redirects)
	}
	var perArray, perTenant int64
	for _, a := range r.PerArray {
		perArray += a.Requests
	}
	for _, tn := range r.Tenants {
		perTenant += tn.Requests
	}
	if perArray != r.Requests || perTenant != r.Requests {
		t.Fatalf("routing totals: arrays %d, tenants %d, admitted %d", perArray, perTenant, r.Requests)
	}
	if got := int64(r.Latency.Count) + r.Rejected; got != r.Requests {
		t.Fatalf("settled %d + rejected %d != admitted %d", r.Latency.Count, r.Rejected, r.Requests)
	}
	if !strings.Contains(r.String(), "policy=hash-only") {
		t.Fatalf("report: %s", r)
	}
}

func TestRunSteeringDivertsAroundRebuild(t *testing.T) {
	c := Config{
		Arrays:      4,
		Policy:      PolicySteering,
		Workers:     3,
		Base:        tinyBase(),
		Tenants:     tinyTenants(8, 150),
		FaultArrays: []int{0},
		Fault: gcsteering.FaultPlan{
			Failures:      []gcsteering.DiskFault{{Disk: 1, AtMs: 0.5}},
			RepairDelayMs: 1,
			RebuildMBps:   20,
		},
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerArray[0].BusyWindows == 0 {
		t.Fatal("faulted array recorded no busy windows")
	}
	if r.Redirects == 0 {
		t.Fatal("steering diverted nothing around the rebuild")
	}
	if r.PerArray[0].Diverted == 0 {
		t.Fatal("no reads diverted off the rebuilding array")
	}
	if r.WOV <= 0 {
		t.Fatal("no window of vulnerability measured")
	}
	var recv int64
	for _, a := range r.PerArray {
		recv += a.Received
	}
	if recv != r.Redirects {
		t.Fatalf("received %d != redirects %d", recv, r.Redirects)
	}
}

func TestAdmissionBudgets(t *testing.T) {
	base := tinyBase()
	tenants := []Tenant{
		{Name: "gold", Profile: "Fin1", QoS: Gold, Requests: 200, ArrivalScale: 4},
		{Name: "bronze", Profile: "Fin1", QoS: Bronze, Requests: 200, ArrivalScale: 4},
	}
	c := Config{Arrays: 2, Policy: PolicyHash, Workers: 1, Base: base, Tenants: tenants}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tenants[0].Shed != 0 {
		t.Fatalf("gold tenant shed %d requests", r.Tenants[0].Shed)
	}
	if r.Tenants[1].Shed == 0 {
		t.Fatal("bronze tenant shed nothing under its class budget")
	}
}

func TestDirectoryOverride(t *testing.T) {
	// Pin every volume of one tenant to array 3 and confirm all its
	// requests land there.
	tenants := []Tenant{{Name: "pinned", Profile: "hm_0", Requests: 100, Volumes: 2}}
	c := Config{
		Arrays:  4,
		Policy:  PolicyHash,
		Workers: 1,
		Base:    tinyBase(),
		Tenants: tenants,
		Directory: map[string]int{
			"pinned/0": 3,
			"pinned/1": 3,
		},
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerArray[3].Requests != r.Requests {
		t.Fatalf("pinned tenant split: array 3 got %d of %d", r.PerArray[3].Requests, r.Requests)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) Config {
		return Config{
			Arrays:      4,
			Policy:      PolicySteering,
			Workers:     workers,
			Base:        tinyBase(),
			Tenants:     tinyTenants(4, 120),
			FaultArrays: []int{1},
			Fault: gcsteering.FaultPlan{
				Failures:      []gcsteering.DiskFault{{Disk: 0, AtMs: 1}},
				RepairDelayMs: 1,
				RebuildMBps:   30,
			},
		}
	}
	var tr1, tr3 bytes.Buffer
	c1 := mk(1)
	c1.Trace = &tr1
	r1, err := Run(c1)
	if err != nil {
		t.Fatal(err)
	}
	c3 := mk(3)
	c3.Trace = &tr3
	r3, err := Run(c3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatalf("results differ across worker counts:\n1: %s\n3: %s", r1, r3)
	}
	if !bytes.Equal(tr1.Bytes(), tr3.Bytes()) {
		t.Fatal("merged traces differ across worker counts")
	}
	if tr1.Len() == 0 {
		t.Fatal("no trace emitted")
	}
}
