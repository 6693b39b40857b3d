// Package bad exercises every maporder rule: map iteration whose order
// escapes into a slice, the event heap, the trace, or Results.
package bad

import (
	"sort"

	"gcsteering"
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

func unsortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appends to keys in map-iteration order without a later sort"
	}
	return keys
}

func sortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func schedules(eng *sim.Engine, m map[int]sim.Time) {
	for _, at := range m {
		eng.At(at, func(sim.Time) {}) // want "schedules a sim event .*Engine.At.* in map-iteration order"
	}
}

func emits(tr *obs.Tracer, m map[int32]int64) {
	for dev, aux := range m {
		tr.Emit(0, obs.Event{Dev: dev, Aux: aux}) // want "emits an obs event .*Tracer.Emit.* in map-iteration order"
	}
}

func accumulates(r *gcsteering.Results, m map[int]int64) {
	for _, n := range m {
		r.GCEpisodes += n // want "writes Results.GCEpisodes in map-iteration order"
	}
}

func closureAppend(m map[string]int) []string {
	var keys []string
	collect := func() {
		for k := range m {
			keys = append(keys, k) // want "appends to keys in map-iteration order without a later sort"
		}
	}
	collect()
	return keys
}

func closureThenSort(m map[string]int) []string {
	var keys []string
	collect := func() {
		for k := range m {
			keys = append(keys, k)
		}
	}
	collect()
	sort.Strings(keys)
	return keys
}

func sanctioned(m map[string]int) []string {
	var keys []string
	for k := range m {
		//lint:allow maporder fixture: order genuinely irrelevant here
		keys = append(keys, k)
	}
	return keys
}

func sliceRangeIsFine(s []string) []string {
	var out []string
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
