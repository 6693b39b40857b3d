package gcsteering

import (
	"reflect"
	"sync"
	"testing"
)

// TestWarmupMatchesNew pins the memo's contract: systems built through one
// shared Warmup from several goroutines at once, so that they race to warm
// the same images, replay exactly like systems New builds — every scheme
// and both staging kinds. The last three cases keep the seed but change one other part of the key, so
// a key missing it hands them another case's image.
func TestWarmupMatchesNew(t *testing.T) {
	dedicated := smallConfig(SchemeSteering)
	dedicated.Staging = StagingDedicated
	heavy := smallConfig(SchemeLGC)
	heavy.PrefillOverwrite = 0.8
	reserve := smallConfig(SchemeLGC)
	reserve.ReservedFrac = 0.1
	watermarks := smallConfig(SchemeLGC)
	watermarks.GCHighWater = 14
	cases := []struct {
		name string
		cfg  Config
	}{
		{"LGC", smallConfig(SchemeLGC)},
		{"GGC", smallConfig(SchemeGGC)},
		{"GC-Steering reserved", smallConfig(SchemeSteering)},
		{"GC-Steering dedicated", dedicated},
		{"LGC heavier warm-up", heavy},
		{"LGC smaller reserve", reserve},
		{"LGC higher GC watermark", watermarks},
	}
	replay := func(build func(Config) (*System, error), cfg Config) (*Results, error) {
		sys, err := build(cfg)
		if err != nil {
			return nil, err
		}
		tr, err := sys.GenerateWorkload("Fin1", 600)
		if err != nil {
			return nil, err
		}
		return sys.Replay(tr)
	}
	want := make([]*Results, len(cases))
	for i, tc := range cases {
		r, err := replay(New, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want[i] = r
	}

	const goroutines = 3
	memo := new(Warmup)
	got := make([][]*Results, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*Results, len(cases))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g) % len(cases) // each goroutine starts on another case
				r, err := replay(memo.New, cases[i].cfg)
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = r
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, tc := range cases {
			if len(want[i].Devices) == 0 || want[i].GCEpisodes == 0 {
				t.Fatalf("%s: no GC to compare", tc.name)
			}
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("%s, goroutine %d: memoized replay differs from New:\nmemo: %+v\nnew:  %+v",
					tc.name, g, got[g][i], want[i])
			}
		}
	}
}
