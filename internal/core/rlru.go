package core

// RLRU is the paper's R_LRU: a bounded LRU list per member SSD that tracks
// the most recently read pages. A page that is read again while still on
// the list is "popular" — the Popular Data Identifier's signal to migrate
// it to the staging space. The capacity bounds how much data can ever be
// considered hot; the paper caps migration at 10% of the data blocks.
//
// The list is intrusive: entries live in a flat slab linked by index, and
// evicted slots are recycled through a free list, so steady-state Touch and
// Remove allocate nothing (container/list would allocate one Element per
// insertion — a measurable cost on the read hot path, where every read
// touches the list).
type RLRU struct {
	cap     int
	entries []rlruEntry // slab; list links are slab indices
	free    []int32     // recycled slots
	head    int32       // most recent, -1 when empty
	tail    int32       // least recent, -1 when empty
	n       int
	pos     map[int32]int32 // page -> slab index
	in      bitmap          // pages in pos; answers the common miss with one bit test
}

// rlruEntry is one tracked page with its recent-hit count and list links.
type rlruEntry struct {
	page       int32
	hits       int32
	prev, next int32 // slab indices, -1 terminates
}

// NewRLRU creates a list bounded to capacity pages (min 1) that tracks
// pages [0, pages).
func NewRLRU(capacity, pages int) *RLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &RLRU{cap: capacity, head: -1, tail: -1, pos: make(map[int32]int32), in: newBitmap(pages)}
}

// unlink detaches slot i from the list without recycling it.
func (r *RLRU) unlink(i int32) {
	e := &r.entries[i]
	if e.prev >= 0 {
		r.entries[e.prev].next = e.next
	} else {
		r.head = e.next
	}
	if e.next >= 0 {
		r.entries[e.next].prev = e.prev
	} else {
		r.tail = e.prev
	}
}

// pushFront makes slot i the most recent entry.
func (r *RLRU) pushFront(i int32) {
	e := &r.entries[i]
	e.prev, e.next = -1, r.head
	if r.head >= 0 {
		r.entries[r.head].prev = i
	}
	r.head = i
	if r.tail < 0 {
		r.tail = i
	}
}

// alloc returns a slab slot, recycling freed ones before growing the slab.
func (r *RLRU) alloc() int32 {
	if k := len(r.free); k > 0 {
		i := r.free[k-1]
		r.free = r.free[:k-1]
		return i
	}
	r.entries = append(r.entries, rlruEntry{})
	return int32(len(r.entries) - 1)
}

// Touch records a read of page and returns how many times it had been
// read recently before this access (0 = first sighting). The caller
// decides the popularity threshold for migration.
func (r *RLRU) Touch(page int32) int {
	if r.in.has(page) {
		i := r.pos[page]
		if r.head != i {
			r.unlink(i)
			r.pushFront(i)
		}
		r.entries[i].hits++
		return int(r.entries[i].hits)
	}
	i := r.alloc()
	r.entries[i] = rlruEntry{page: page}
	r.pushFront(i)
	r.pos[page] = i
	r.in.set(page)
	r.n++
	if r.n > r.cap {
		oldest := r.tail
		r.unlink(oldest)
		delete(r.pos, r.entries[oldest].page)
		r.in.unset(r.entries[oldest].page)
		r.free = append(r.free, oldest)
		r.n--
	}
	return 0
}

// Contains reports whether page is currently tracked, without promoting it.
func (r *RLRU) Contains(page int32) bool { return r.in.has(page) }

// Remove drops page from the list (used when a write invalidates the
// hotness of a read page).
func (r *RLRU) Remove(page int32) {
	if !r.in.has(page) {
		return
	}
	i := r.pos[page]
	r.unlink(i)
	delete(r.pos, page)
	r.in.unset(page)
	r.free = append(r.free, i)
	r.n--
}

// Len returns the number of tracked pages.
func (r *RLRU) Len() int { return r.n }

// Cap returns the capacity.
func (r *RLRU) Cap() int { return r.cap }
