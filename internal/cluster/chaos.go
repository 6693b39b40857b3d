// chaos.go compiles a seeded chaos plan — array crashes, replica-link
// slowdowns, correlated GC storms — into the explicit fault schedule the
// router executes. Compilation is a pure function of (plan, fleet shape,
// workload span): the generator is a local splitmix64 stream, so a chaos run is
// exactly as reproducible as a healthy one and the byte-identical
// determinism gates apply unchanged.
package cluster

import (
	"fmt"

	"gcsteering"
)

// ChaosPlan seeds deterministic fleet-level adversity. The zero value
// injects nothing. Every window lands inside the admitted workload's span
// (the horizon).
type ChaosPlan struct {
	// Seed drives every draw; identical plans compile identically.
	Seed int64

	// Crashes is how many distinct arrays crash (arrays already carrying an
	// explicit ArrayFault are never chosen). CrashDowntimeMs > 0 makes the
	// crashes timed; 0 makes them permanent.
	Crashes         int
	CrashDowntimeMs float64

	// LinkSlowdowns degrade the replication link into randomly chosen
	// arrays: each window adds LinkExtraUs (0 = 200) to replica and mirror
	// legs for a quarter of the horizon.
	LinkSlowdowns int
	LinkExtraUs   float64

	// GCStorms are correlated service-time spikes: each storm hits
	// max(2, Arrays/2) arrays at once with StormExtraUs (0 = 150) per page
	// op for a fifth of the horizon — the unsynchronized-GC worst case
	// where several replicas degrade together.
	GCStorms     int
	StormExtraUs float64
}

// Enabled reports whether the plan injects anything.
func (p ChaosPlan) Enabled() bool {
	return p.Crashes > 0 || p.LinkSlowdowns > 0 || p.GCStorms > 0
}

// validate reports plan errors against the fleet size.
func (p ChaosPlan) validate(arrays int) error {
	if p.Crashes < 0 || p.LinkSlowdowns < 0 || p.GCStorms < 0 {
		return fmt.Errorf("cluster: chaos counts must be non-negative")
	}
	if p.Crashes >= arrays {
		return fmt.Errorf("cluster: chaos Crashes %d would down the whole %d-array fleet", p.Crashes, arrays)
	}
	return nil
}

// chaosRand is a splitmix64 stream: tiny, allocation-free, and local to
// the plan, so chaos draws cannot perturb (or be perturbed by) any other
// seeded stream in the run.
type chaosRand struct{ s uint64 }

func (r *chaosRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *chaosRand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// float returns a uniform draw in [0, 1).
func (r *chaosRand) float() float64 {
	return float64(r.next()>>11) / float64(uint64(1)<<53)
}

// pick selects k distinct entries from candidates with a partial
// Fisher-Yates shuffle, mutating candidates in place.
func (r *chaosRand) pick(candidates []int, k int) []int {
	if k > len(candidates) {
		k = len(candidates)
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return candidates[:k]
}

// compile lowers the plan to array faults, link slowdowns, and per-array
// intra-array slowdown storms. taken marks arrays that already carry an
// explicit fault and must not be crashed again; disks is the per-array
// member count a storm fans out over.
func (p ChaosPlan) compile(arrays, disks int, horizonMs float64, taken []bool) ([]ArrayFault, []linkSlowdown, [][]gcsteering.DiskSlowdown) {
	rng := &chaosRand{s: uint64(p.Seed) ^ 0x6368616f732d7631}
	var faults []ArrayFault
	var links []linkSlowdown
	storms := make([][]gcsteering.DiskSlowdown, arrays)

	if p.Crashes > 0 {
		var free []int
		for a := 0; a < arrays; a++ {
			if !taken[a] {
				free = append(free, a)
			}
		}
		n := p.Crashes
		if n >= len(free) {
			n = len(free) - 1 // always leave one untouched array standing
		}
		for _, a := range rng.pick(free, n) {
			faults = append(faults, ArrayFault{
				Array:      a,
				AtMs:       horizonMs * (0.25 + 0.5*rng.float()),
				DowntimeMs: p.CrashDowntimeMs,
			})
		}
	}

	extraUs := p.LinkExtraUs
	if extraUs == 0 {
		extraUs = 200
	}
	durMs := horizonMs / 4
	for i := 0; i < p.LinkSlowdowns; i++ {
		links = append(links, linkSlowdown{
			Array:      rng.intn(arrays),
			StartMs:    horizonMs * (0.1 + 0.6*rng.float()),
			DurationMs: durMs,
			ExtraUs:    extraUs,
		})
	}

	stormExtraUs := p.StormExtraUs
	if stormExtraUs == 0 {
		stormExtraUs = 150
	}
	stormMs := horizonMs / 5
	width := max(2, arrays/2)
	for i := 0; i < p.GCStorms; i++ {
		startMs := horizonMs * (0.1 + 0.6*rng.float())
		all := make([]int, arrays)
		for a := range all {
			all[a] = a
		}
		for _, a := range rng.pick(all, width) {
			for d := 0; d < disks; d++ {
				storms[a] = append(storms[a], gcsteering.DiskSlowdown{
					Disk: d, Channel: -1,
					StartMs: startMs, DurationMs: stormMs,
					ExtraPerOpUs: stormExtraUs,
				})
			}
		}
	}
	return faults, links, storms
}
