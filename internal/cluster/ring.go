package cluster

import (
	"sort"
	"strconv"
)

// FNV-1a 64-bit constants. The hash is implemented inline rather than via
// hash/fnv so a ring lookup allocates nothing and the function stays usable
// from per-request paths.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv64 hashes s with FNV-1a and finishes with a murmur3-style avalanche.
// Raw FNV-1a clusters badly on short, similar strings ("array-0#1" vs
// "array-0#2" differ in a handful of high bits), which would collapse the
// ring's virtual nodes into one arc; the finalizer spreads them uniformly.
func fnv64[S string | []byte](s S) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return fnvFinish(h)
}

// fnvFinish is the murmur3-style avalanche applied after the FNV-1a fold.
func fnvFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnv64At hashes the byte sequence `s + "@" + decimal(n)` without building
// the intermediate string, producing output bit-identical to
// fnv64(fmt.Sprintf("%s@%d", s, n)) for n >= 0. The per-request placement
// path (arrayOffset) depends on that equivalence: switching hash inputs
// would silently re-place every volume extent, so TestFnv64AtMatchesSprintf
// pins the two forms together.
func fnv64At(s string, n int) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= uint64('@')
	h *= fnvPrime
	var buf [20]byte
	i := len(buf)
	if n == 0 {
		i--
		buf[i] = '0'
	}
	for v := n; v > 0; v /= 10 {
		i--
		buf[i] = byte('0' + v%10)
	}
	for ; i < len(buf); i++ {
		h ^= uint64(buf[i])
		h *= fnvPrime
	}
	return fnvFinish(h)
}

// searchGE returns the index of the first ring point with hash >= h, or
// len(points) if none. It is sort.Search specialised to the ring so the
// per-request lookup path stays closure-free (sort.Search's func argument
// escapes to the heap on every call).
func (r *ring) searchGE(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash >= h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint64
	array int
}

// ring places volume keys onto arrays by consistent hashing: each array
// contributes vnodes virtual points, a key lands on the first point at or
// clockwise of its hash, and its replica is the next *distinct* array
// further clockwise. Virtual nodes smooth the load split; consistent
// hashing (rather than key mod N) keeps most placements stable when the
// fleet grows, which is what makes a directory override tier workable.
type ring struct {
	points []ringPoint
}

// newRing builds the ring for `arrays` arrays with `vnodes` virtual nodes
// each. Construction is deterministic: point hashes depend only on the
// array index and vnode index.
func newRing(arrays, vnodes int) *ring {
	pts := make([]ringPoint, 0, arrays*vnodes)
	var buf []byte // "array-<a>#<v>", rebuilt in place per point
	for a := 0; a < arrays; a++ {
		for v := 0; v < vnodes; v++ {
			buf = strconv.AppendInt(append(buf[:0], "array-"...), int64(a), 10)
			buf = strconv.AppendInt(append(buf, '#'), int64(v), 10)
			pts = append(pts, ringPoint{fnv64(buf), a})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].array < pts[j].array
	})
	return &ring{points: pts}
}

// lookup returns the primary and replica array for a volume key. In a
// one-array ring replica equals primary (no distinct array exists). A
// degenerate ring with no points maps every key to array 0 — Config
// validation rejects such fleets before a ring is ever built, so the guard
// is a backstop against future direct callers, not a reachable state.
func (r *ring) lookup(key string) (primary, replica int) {
	if len(r.points) == 0 {
		return 0, 0
	}
	h := fnv64(key)
	i := r.searchGE(h)
	if i == len(r.points) {
		i = 0
	}
	primary = r.points[i].array
	replica = primary
	for k := 1; k <= len(r.points); k++ {
		if p := r.points[(i+k)%len(r.points)]; p.array != primary {
			replica = p.array
			break
		}
	}
	return primary, replica
}

// replicaExcluding walks the ring clockwise from the key's position and
// returns the first array not in avoid. It is the replica rule the
// Directory-override and spare-selection paths share: a pinned volume's
// replica is still the array the ring walk reaches first (so replica
// placement keeps the ring's failure independence instead of the pinned
// primary's numeric neighbor), and a crashed array's replacement replica is
// the next ring arc past both live copies. With every array avoided (or an
// empty ring) it degrades to the key's clockwise successor.
func (r *ring) replicaExcluding(key string, avoid ...int) int {
	if len(r.points) == 0 {
		return 0
	}
	h := fnv64(key)
	i := r.searchGE(h)
	if i == len(r.points) {
		i = 0
	}
	for k := 0; k <= len(r.points); k++ {
		a := r.points[(i+k)%len(r.points)].array
		excluded := false
		for _, x := range avoid {
			if a == x {
				excluded = true
				break
			}
		}
		if !excluded {
			return a
		}
	}
	return r.points[i].array
}
