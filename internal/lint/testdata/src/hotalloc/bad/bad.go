// Package bad exercises hotalloc: heap-allocating constructs in functions
// reachable from a //gcsvet:hot root are flagged, while the sanctioned
// scratch shapes, failure paths, and //gcsvet:cold boundaries stay silent.
package bad

import "fmt"

type buffers struct {
	scratch []int
}

type step interface{ Step(int) int }

type stepImpl struct{}

// Step is reached from the root through interface dispatch (CHA resolves
// the step interface to every module implementer).
func (stepImpl) Step(n int) int {
	p := new(int) // want "new.T. allocates on the hot path"
	*p = n
	return *p
}

type node struct{ v int }

// Route is the hot root; everything it reaches transitively is checked.
//
//gcsvet:hot
func (b *buffers) Route(vals []int, m map[int]int, s step) {
	b.direct(vals)
	_ = s.Step(1)
	b.scratchOK(vals)
	b.grow(len(vals))
	if err := b.validate(len(vals)); err != nil {
		return
	}
	b.must(len(vals) >= 0)
	_ = b.box(1)
	_ = b.scan(m)
	b.nocapture()
	_ = b.closures(2)
	b.plan()
	_ = setup()
	done = b.onDone
}

var done func(int)

// onDone is only bound as a callback by Route, and still checked.
func (b *buffers) onDone(n int) {
	_ = make([]int, n) // want "make allocates on the hot path"
}

func (b *buffers) direct(vals []int) {
	var out []int
	for _, v := range vals {
		out = append(out, v) // want "appends to out, which does not reuse preallocated backing storage"
	}
	_ = out
	_ = fmt.Sprint(len(vals)) // want "calls fmt.Sprint on the hot path"
}

// scratchOK grows a caller-owned buffer: reslice destinations are safe.
func (b *buffers) scratchOK(vals []int) {
	out := b.scratch[:0]
	for _, v := range vals {
		out = append(out, v)
	}
	b.scratch = out
}

// grow is the amortized warm-up shape: make assigned directly to a struct
// field is retained storage, not a per-request cost.
func (b *buffers) grow(n int) {
	if cap(b.scratch) < n {
		b.scratch = make([]int, 0, n)
	}
}

// validate allocates only on its failure path: a return whose error
// result is non-nil is cold by construction.
func (b *buffers) validate(n int) error {
	if n < 0 {
		return fmt.Errorf("negative length %d", n)
	}
	return nil
}

// must allocates only inside a panic argument and a panic-terminated if
// body, both cold.
func (b *buffers) must(ok bool) {
	if !ok {
		panic(fmt.Sprintf("broken invariant"))
	}
}

func (b *buffers) box(v int) *node {
	return &node{v: v} // want "composite literal escapes to the heap"
}

func (b *buffers) scan(m map[int]int) int {
	s := 0
	for _, v := range m { // want "iterates a map on the hot path"
		s += v
	}
	return s
}

var sink func() int

// nocapture stores a capture-free literal: no context allocation.
func (b *buffers) nocapture() {
	sink = func() int { return 0 }
}

func (b *buffers) closures(n int) func() int {
	return func() int { return n } // want "closure captures .n. and allocates per call"
}

// plan is episodic GC-style work fenced off the hot path; its allocations
// are deliberate and unchecked.
//
//gcsvet:cold
func (b *buffers) plan() map[string]int {
	return map[string]int{"victims": 1}
}

// setup is never hot-reachable by name only — it is called from Route, so
// it IS checked; keep it allocation-free to prove reachability pruning is
// about cold fences, not call depth.
func setup() int {
	return 42
}
