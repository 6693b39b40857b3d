package cluster

import (
	"bytes"
	"reflect"
	"testing"
)

func TestChaosCompileDeterministic(t *testing.T) {
	p := ChaosPlan{Seed: 42, Crashes: 2, CrashDowntimeMs: 300, LinkSlowdowns: 2, GCStorms: 2}
	taken := make([]bool, 8)
	f1, l1, s1 := p.compile(8, 5, 5000, taken)
	f2, l2, s2 := p.compile(8, 5, 5000, make([]bool, 8))
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("identical plans compiled differently")
	}
	p2 := p
	p2.Seed = 43
	f3, _, _ := p2.compile(8, 5, 5000, make([]bool, 8))
	if reflect.DeepEqual(f1, f3) {
		t.Fatal("different seeds compiled identical crash schedules")
	}
	for _, f := range f1 {
		if f.AtMs < 5000*0.25 || f.AtMs > 5000*0.75 {
			t.Fatalf("crash at %.1fms outside the mid-horizon band", f.AtMs)
		}
	}
}

func TestChaosCompileRespectsTakenAndLeavesOneStanding(t *testing.T) {
	p := ChaosPlan{Seed: 7, Crashes: 3}
	taken := []bool{false, true, false, true}
	faults, _, _ := p.compile(4, 5, 1000, taken)
	// Only arrays 0 and 2 are free, and one must stay standing.
	if len(faults) != 1 {
		t.Fatalf("wanted 1 crash (2 free arrays, 1 must survive), got %d", len(faults))
	}
	if a := faults[0].Array; a != 0 && a != 2 {
		t.Fatalf("crashed a taken array: %d", a)
	}
}

func TestChaosValidate(t *testing.T) {
	base := tinyBase()
	good := Config{Arrays: 4, Base: base, Tenants: tinyTenants(1, 10)}
	for _, tc := range []struct {
		name string
		plan ChaosPlan
	}{
		{"crash whole fleet", ChaosPlan{Crashes: 4}},
		{"negative storms", ChaosPlan{GCStorms: -1}},
		{"negative duration", ChaosPlan{Crashes: 1, CrashDowntimeMs: -2}},
		{"downtime past horizon", ChaosPlan{Crashes: 1, CrashDowntimeMs: 1e300}},
		{"link extra past horizon", ChaosPlan{LinkSlowdowns: 1, LinkExtraUs: 1e300}},
		{"storm extra past horizon", ChaosPlan{GCStorms: 1, StormExtraUs: 1e300}},
	} {
		c := good
		c.Chaos = tc.plan
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	c := good
	c.Chaos = ChaosPlan{Seed: 1, Crashes: 1, LinkSlowdowns: 1, GCStorms: 1}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid chaos plan rejected: %v", err)
	}
}

// TestNoDataLossUnderAnySingleArrayCrash sweeps the permanent crash over
// every array: with replicated writes on, no single-array failure may ever
// produce a data-loss event.
func TestNoDataLossUnderAnySingleArrayCrash(t *testing.T) {
	for a := 0; a < 4; a++ {
		c := Config{
			Arrays:          4,
			Policy:          PolicyHash,
			Workers:         2,
			Base:            tinyBase(),
			Tenants:         tinyTenants(6, 120),
			ReplicateWrites: true,
			ArrayFaults:     []ArrayFault{{Array: a, AtMs: 2000}},
		}
		r, err := Run(c)
		if err != nil {
			t.Fatalf("array %d: %v", a, err)
		}
		conserve(t, r)
		if r.DataLossEvents != 0 {
			t.Fatalf("array %d permanent crash: %d data-loss events with replication on",
				a, r.DataLossEvents)
		}
	}
}

// TestChaosRunDeterministicAcrossWorkers is the chaos arm of the
// determinism contract: a full chaos run (crash + link slowdown + GC
// storm + replication + steering) must be byte-identical across worker
// counts.
func TestChaosRunDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) Config {
		return Config{
			Arrays:          4,
			Policy:          PolicySteering,
			Workers:         workers,
			Base:            tinyBase(),
			Tenants:         tinyTenants(4, 120),
			ReplicateWrites: true,
			ReplicaLinkUs:   40,
			Chaos: ChaosPlan{
				Seed:            11,
				Crashes:         1,
				CrashDowntimeMs: 800,
				LinkSlowdowns:   1,
				GCStorms:        1,
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
		t.Fatalf("chaos results differ across worker counts:\n1: %s\n3: %s", r1, r3)
	}
	if !bytes.Equal(tr1.Bytes(), tr3.Bytes()) {
		t.Fatal("chaos traces differ across worker counts")
	}
	if len(r1.Failures) != 1 {
		t.Fatalf("chaos compiled %d crashes, want 1", len(r1.Failures))
	}
	conserve(t, r1)
}
