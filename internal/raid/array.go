package raid

import (
	"errors"
	"fmt"

	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

// ErrOverloaded is returned by Read/Write when admission control refuses
// the request: the array already has QueueLimit requests in flight. The
// caller sheds the request instead of queueing it into an ever-deeper
// backlog.
var ErrOverloaded = errors.New("raid: array overloaded")

// Cancel is a request-scoped cancellation token. The facade arms one per
// request when deadlines are enabled; sub-ops not yet issued when the
// token fires (an RMW write phase, a retry) are absorbed instead of
// touching the disks. A nil *Cancel is the never-cancelled token. The
// array reads a caller's token only until the request's done fires, so
// the caller may recycle it from then on.
type Cancel struct {
	canceled bool
	parent   *Cancel // a token this one follows (see hedge)
}

// Cancel marks the token cancelled. Nil-safe.
func (c *Cancel) Cancel() {
	if c != nil {
		c.canceled = true
	}
}

// Canceled reports whether the token has been cancelled. Nil-safe.
func (c *Cancel) Canceled() bool { return c != nil && (c.canceled || c.parent.Canceled()) }

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Disk is the device interface the timed array drives. *ssd.Device
// implements it; tests substitute fixed-latency fakes. Read and Write
// return an error only for malformed page ranges — the array validates
// requests at its own boundary, so member errors are invariant violations.
type Disk interface {
	Read(now sim.Time, page, pages int, done func(now sim.Time)) error
	Write(now sim.Time, page, pages int, done func(now sim.Time)) error
	LogicalPages() int
	InGC(now sim.Time) bool
}

// must panics on an I/O error from a member disk: every sub-op range is
// derived from layout math over requests validated at the public boundary,
// so an error here is an internal invariant violation, not bad input.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// OpKind labels a sub-operation so routing policies (the GC-Steering
// redirector) can tell user data traffic from parity maintenance and
// recovery traffic.
type OpKind int

const (
	// OpDataRead reads user data.
	OpDataRead OpKind = iota
	// OpDataWrite writes user data.
	OpDataWrite
	// OpOldDataRead is the read-old-data half of a read-modify-write.
	OpOldDataRead
	// OpParityRead reads parity (RMW phase 1 or degraded reconstruction).
	OpParityRead
	// OpParityWrite writes parity. The paper requires parity to be updated
	// in its correct position even while the data write is steered away, so
	// routers must never redirect this kind.
	OpParityWrite
)

// String returns a short label for the kind.
func (k OpKind) String() string {
	switch k {
	case OpDataRead:
		return "data-read"
	case OpDataWrite:
		return "data-write"
	case OpOldDataRead:
		return "old-data-read"
	case OpParityRead:
		return "parity-read"
	case OpParityWrite:
		return "parity-write"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// SubOp is one disk-level operation produced by splitting a user request.
type SubOp struct {
	Disk   int
	Page   int // first page on the member disk
	Pages  int
	Kind   OpKind
	Stripe int
}

// RouteFunc lets a policy claim a sub-op. Returning true means the policy
// services the op itself and will invoke done when it completes; returning
// false sends the op to the member disk as usual.
type RouteFunc func(now sim.Time, op SubOp, done func(now sim.Time)) bool

// Faulty is implemented by disks that can surface latent sector errors
// (unrecoverable read errors). *ssd.Device implements it when a fault hook
// is installed; the array consults it on every user data read and recovers
// through parity while redundancy lasts.
type Faulty interface {
	ReadError(now sim.Time, page, pages int) bool
}

// Verifier is implemented by disks whose reads can be checksum-verified
// end to end: VerifyError reports silent corruption that a plain read
// would deliver without complaint. *ssd.Device implements it when a
// scrub-capable fault hook is installed.
type Verifier interface {
	VerifyError(now sim.Time, page, pages int) bool
}

// SlowDisk is implemented by disks that know they are currently fail-slow
// (inside an injected slowdown window). Together with InGC it is the
// hedged-read trigger.
type SlowDisk interface {
	Slow(now sim.Time) bool
}

// TransientFaulty is implemented by disks whose read attempts can fail
// transiently. Unlike Faulty's persistent latent errors, each attempt
// draws independently, so the array's bounded-retry path — not its parity
// reconstruction path — absorbs these.
type TransientFaulty interface {
	TransientReadError(now sim.Time, page, pages int) bool
}

// Stats counts array-level activity.
type Stats struct {
	UserReads       int64
	UserWrites      int64
	SubOps          int64
	DegradedReads   int64 // reconstruct-reads for data on a failed or quarantined disk
	QuarantineReads int64 // the subset of HedgedReads raced because of an open breaker
	FullStripes     int64 // writes served as full-stripe (no RMW read phase)
	RMWStripes      int64 // writes served read-modify-write
	ReconstructWr   int64 // degraded reconstruct-writes
	GCAvoidWrites   int64 // reconstruct-writes chosen to dodge a collecting disk
	ParityPages     int64 // parity pages written
	RoutedSubOps    int64 // sub-ops claimed by the Route hook
	SubOpsDuringGC  int64 // sub-ops addressed to a disk while it was in GC
	UREs            int64 // user reads that hit an unrecoverable read error
	URERepaired     int64 // UREs served by reconstruction from the survivors
	DataLossEvents  int64 // UREs/corruptions with no redundancy left to recover from
	StaleSubOps     int64 // sub-ops absorbed because their disk failed mid-op
	ChecksumErrors  int64 // reads whose end-to-end checksum verification failed
	ChecksumFixed   int64 // checksum failures served by reconstruction instead
	HedgedReads     int64 // reads raced against a parity reconstruct-read
	HedgeReconWins  int64 // hedged reads where the reconstruction finished first

	Rejected         int64 // user requests refused by admission control
	TransientErrors  int64 // read sub-op attempts that failed transiently
	Retries          int64 // retry attempts scheduled after a transient error
	RetriesExhausted int64 // read sub-ops that gave up after MaxRetries
	CanceledSubOps   int64 // sub-ops absorbed because their request's deadline passed
}

// Array is the timed RAID engine: it fans user requests out to member
// disks with correct RAID5/6 read-modify-write and degraded-mode behaviour
// and reports completion on the simulation clock. It moves no actual bytes
// (Store is the byte-accurate reference); it models who does I/O and when.
type Array struct {
	eng    *sim.Engine
	lay    Layout
	disks  []Disk
	failed []int

	// Route, when non-nil, is consulted for every sub-op before it is
	// issued to a member disk. The GC-Steering redirector installs itself
	// here.
	Route RouteFunc

	// GCAwareWrites switches partial-stripe writes whose old-data read
	// would land on a collecting disk from read-modify-write to
	// reconstruct-write (read the stripe's other data units from healthy
	// disks and re-encode parity). Together with the redirector this keeps
	// user traffic off collecting disks entirely. Baseline schemes (LGC,
	// GGC) leave it false.
	GCAwareWrites bool

	// VerifyReads enables end-to-end checksum verification on every user
	// data read: silent corruption (Verifier.VerifyError) is detected and
	// served from redundancy instead of being delivered, counted in
	// ChecksumErrors/ChecksumFixed. Off, corrupted reads pass silently.
	//gcsvet:inert
	VerifyReads bool

	// HedgedReads races a parity reconstruct-read against direct reads
	// whose home disk is mid-GC or fail-slow and takes whichever leg
	// finishes first — the read-side dual of GC-aware write steering. Both
	// legs consume channel time (the loser is not cancelled), trading
	// extra load for GC-phase tail latency.
	HedgedReads bool

	// Trace, when non-nil, receives the per-disk sub-op fan-out and the
	// degraded-read / unrecoverable-read-error events.
	Trace *obs.Tracer

	// MaxRetries bounds transparent retries of read sub-ops that fail
	// transiently (TransientFaulty). Zero disables retries: a transient
	// error is simply delivered as a completed (slow) read.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling on each
	// subsequent attempt. Zero with MaxRetries > 0 retries immediately.
	RetryBackoff sim.Time
	// QueueLimit caps concurrently in-flight user requests; Read/Write
	// return ErrOverloaded beyond it. Zero means unlimited.
	QueueLimit int
	// Quarantined, when non-nil, reports members the health monitor has
	// quarantined; the array treats them like collecting disks when
	// choosing write strategies and hedging reads.
	Quarantined func(now sim.Time, d int) bool

	inflight int // user requests admitted but not yet completed
	stats    Stats

	// caps caches each member's optional capability interfaces (Faulty,
	// Verifier, SlowDisk, TransientFaulty) so the per-sub-op fault checks
	// are a nil test instead of a type assertion. Rebound whenever the
	// disk set changes (RepairDisk).
	caps []diskCaps

	// Scratch buffers reused across requests. The engine is single-threaded
	// and every buffer below is fully consumed before the request's public
	// entry point returns (the Route hook never re-enters the array), so a
	// request in steady state allocates no slices.
	extScratch    []Extent
	itemScratch   []SubOp
	hedgeScratch  []*hedge
	groupScratch  []stripeGroup
	phase1Scratch []SubOp
	coverScratch  [][2]int

	// State that outlives its call lives in pooled records with callbacks
	// bound once per record; with the engine's Join for the fan-ins, a
	// request in steady state allocates nothing.
	requests     sim.FreeList[request]
	stripeWrites sim.FreeList[stripeWrite]
	hedges       sim.FreeList[hedge]

	// Intents, when non-nil, is the write-ahead dirty-stripe intent
	// journal: every stripe write marks its stripe before the
	// fan-out and clears it at the stripe barrier, closing the RAID write
	// hole (see journal.go). Nil keeps the write path allocation-free and
	// the traces byte-identical to a journal-free build.
	Intents *IntentLog
}

// diskCaps is one member's cached optional capabilities; nil fields mean
// the disk does not implement the corresponding interface.
type diskCaps struct {
	faulty    Faulty
	verifier  Verifier
	slow      SlowDisk
	transient TransientFaulty
}

// bindCaps re-derives the capability cache from the current disk set.
func (a *Array) bindCaps() {
	if a.caps == nil {
		a.caps = make([]diskCaps, len(a.disks))
	}
	for i, d := range a.disks {
		c := diskCaps{}
		c.faulty, _ = d.(Faulty)
		c.verifier, _ = d.(Verifier)
		c.slow, _ = d.(SlowDisk)
		c.transient, _ = d.(TransientFaulty)
		a.caps[i] = c
	}
}

// span returns the union [lo, hi) of g's in-unit offsets (contiguous for
// a contiguous write), the pages g writes, and the in-unit range g covers
// on each data unit ({-1,-1} for none) in per-array scratch.
func (a *Array) span(g stripeGroup) (lo, hi, pages int, covered [][2]int) {
	n := a.lay.DataDisks()
	if len(a.coverScratch) < n {
		a.coverScratch = make([][2]int, n)
	}
	covered = a.coverScratch[:n]
	for i := range covered {
		covered[i] = [2]int{-1, -1}
	}
	base := a.lay.UnitPage(g.stripe)
	lo = a.lay.UnitPages
	for _, e := range g.exts {
		off := e.Page - base
		lo, hi, pages = min(lo, off), max(hi, off+e.Pages), pages+e.Pages
		covered[e.DataIdx] = [2]int{off, off + e.Pages}
	}
	return lo, hi, pages, covered
}

// appendParity appends an op of kind over [page, page+pages) on each alive
// parity unit of stripe st: P, and Q on RAID6.
func (a *Array) appendParity(ops []SubOp, st, page, pages int, kind OpKind) []SubOp {
	for _, d := range [2]int{a.lay.ParityDisk(st), a.lay.QDisk(st)} {
		if d >= 0 && a.Alive(d) {
			ops = append(ops, SubOp{Disk: d, Page: page, Pages: pages, Kind: kind, Stripe: st})
		}
	}
	return ops
}

// NewArray builds an array over the given member disks.
func NewArray(eng *sim.Engine, lay Layout, disks []Disk) (*Array, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if len(disks) != lay.Disks {
		return nil, fmt.Errorf("raid: layout wants %d disks, got %d", lay.Disks, len(disks))
	}
	for i, d := range disks {
		if d.LogicalPages() < lay.DiskPages {
			return nil, fmt.Errorf("raid: disk %d has %d pages, layout needs %d",
				i, d.LogicalPages(), lay.DiskPages)
		}
	}
	a := &Array{eng: eng, lay: lay, disks: disks}
	a.bindCaps()
	return a, nil
}

// Layout returns the array layout.
func (a *Array) Layout() Layout { return a.lay }

// Disks returns the member disks (index = disk id).
func (a *Array) Disks() []Disk { return a.disks }

// Stats returns a snapshot of the counters.
func (a *Array) Stats() Stats { return a.stats }

// Failed returns the oldest failed disk id or -1 (the disk the
// reconstruction engine should rebuild first).
func (a *Array) Failed() int {
	if len(a.failed) == 0 {
		return -1
	}
	return a.failed[0]
}

// FailedDisks returns all failed disk ids.
func (a *Array) FailedDisks() []int { return append([]int(nil), a.failed...) }

// Degraded reports whether any member disk is failed.
func (a *Array) Degraded() bool { return len(a.failed) > 0 }

// maxFailures is the layout's fault tolerance: one per parity unit.
func (a *Array) maxFailures() int { return a.lay.Disks - a.lay.DataDisks() }

// FailDisk marks member d failed. Subsequent reads reconstruct from the
// survivors; writes use reconstruct-write. RAID6 tolerates a second
// failure (the paper's §III-D second-failure scenario).
func (a *Array) FailDisk(d int) error {
	if d < 0 || d >= a.lay.Disks {
		return fmt.Errorf("raid: no disk %d", d)
	}
	if !a.Alive(d) {
		return fmt.Errorf("raid: disk %d already failed", d)
	}
	if len(a.failed) >= a.maxFailures() {
		return fmt.Errorf("raid: %v cannot survive %d failures", a.lay.Level, len(a.failed)+1)
	}
	a.failed = append(a.failed, d)
	return nil
}

// RepairDisk installs a replacement for the oldest failed slot (after the
// reconstruction engine has rebuilt its contents). Passing nil keeps the
// existing Disk object (used when the failed device was logically replaced
// in place).
func (a *Array) RepairDisk(replacement Disk) error {
	if len(a.failed) == 0 {
		return fmt.Errorf("raid: no failed disk to repair")
	}
	if replacement != nil {
		if replacement.LogicalPages() < a.lay.DiskPages {
			return fmt.Errorf("raid: replacement too small")
		}
		for i, d := range a.disks {
			if i != a.failed[0] && d == replacement {
				return fmt.Errorf("raid: replacement is already member %d", i)
			}
		}
		a.disks[a.failed[0]] = replacement
		a.bindCaps()
	}
	a.failed = a.failed[1:]
	return nil
}

// Alive reports whether member d is currently healthy (not failed).
func (a *Array) Alive(d int) bool {
	for _, f := range a.failed {
		if f == d {
			return false
		}
	}
	return true
}

// SpareRedundancy is how many additional member losses the array can absorb
// right now: the layout's fault tolerance minus the failures already
// sustained. Zero means the survivors are the last copy of the data — the
// window in which one more loss (or an unrecoverable read error during
// rebuild) is data loss.
func (a *Array) SpareRedundancy() int { return a.maxFailures() - len(a.failed) }

// issue routes one sub-op to the member disk (or the Route hook).
func (a *Array) issue(now sim.Time, op SubOp, tok *Cancel, done func(now sim.Time)) {
	if a.absorbed(op, tok) {
		if done != nil {
			a.eng.At(now, done)
		}
		return
	}
	a.stats.SubOps++
	if a.disks[op.Disk].InGC(now) {
		a.stats.SubOpsDuringGC++
	}
	if a.Trace.Enabled() {
		a.Trace.Emit(now, obs.Event{Kind: obs.KSubOp, Dev: int32(op.Disk),
			Page: int64(op.Page), Pages: int32(op.Pages),
			Aux: int64(op.Kind), Aux2: int64(op.Stripe)})
	}
	if a.Route != nil && a.Route(now, op, done) {
		a.stats.RoutedSubOps++
		return
	}
	if op.Kind == OpDataWrite || op.Kind == OpParityWrite {
		must(a.disks[op.Disk].Write(now, op.Page, op.Pages, done))
	} else {
		a.issueRead(now, op, tok, done, 0)
	}
}

// absorbed reports, and counts, a sub-op that completes at once without
// touching its disk, so its fan-in still settles: its request's deadline
// passed while it waited on an earlier phase or a backoff, or its disk
// failed after the plan was made (the stripe's parity covers the write).
func (a *Array) absorbed(op SubOp, tok *Cancel) bool {
	switch {
	case tok.Canceled():
		a.stats.CanceledSubOps++
	case !a.Alive(op.Disk):
		a.stats.StaleSubOps++
	default:
		return false
	}
	return true
}

// issueRead sends one read sub-op to its member, retrying transient
// failures with exponential backoff up to MaxRetries. The failed attempt
// still occupies the channel — a real drive burns the bus time before
// reporting the timeout — so the retry is scheduled from the attempt's
// completion instant. With no transient fault (the common case) this is
// exactly the plain read issue: one disk call, no extra events.
func (a *Array) issueRead(now sim.Time, op SubOp, tok *Cancel, done func(now sim.Time), attempt int) {
	td := a.caps[op.Disk].transient
	if td == nil || !td.TransientReadError(now, op.Page, op.Pages) {
		must(a.disks[op.Disk].Read(now, op.Page, op.Pages, done))
		return
	}
	a.stats.TransientErrors++
	//lint:allow hotalloc retry closure exists only after an injected transient fault fired, an opt-in fault-model feature
	cb := func(t sim.Time) {
		if attempt >= a.MaxRetries || tok.Canceled() {
			// Out of budget (or the request no longer cares): deliver the
			// attempt as a completed, slow read. Persistent-error recovery
			// (the URE path) was already consulted before the fan-out.
			if attempt >= a.MaxRetries {
				a.stats.RetriesExhausted++
				if a.Trace.Enabled() {
					a.Trace.Emit(t, obs.Event{Kind: obs.KRetryExhausted, Dev: int32(op.Disk),
						Page: int64(op.Page), Pages: int32(op.Pages), Aux: int64(attempt + 1)})
				}
			}
			if done != nil {
				done(t)
			}
			return
		}
		backoff := a.retryDelay(t, attempt)
		a.stats.Retries++
		if a.Trace.Enabled() {
			a.Trace.Emit(t, obs.Event{Kind: obs.KRetry, Dev: int32(op.Disk),
				Page: int64(op.Page), Pages: int32(op.Pages),
				Aux: int64(attempt + 1), Aux2: int64(backoff)})
		}
		//lint:allow hotalloc backoff re-issue closure, same opt-in transient-fault path as the retry closure above
		a.eng.At(t+backoff, func(t2 sim.Time) {
			if !a.absorbed(op, tok) {
				a.issueRead(t2, op, tok, done, attempt+1)
			} else if done != nil {
				done(t2)
			}
		})
	}
	// The failed attempt needs a completion event to drive the retry even
	// when the caller passed no done callback.
	must(a.disks[op.Disk].Read(now, op.Page, op.Pages, cb))
}

// retryDelay is the backoff before retry attempt+1 at t: RetryBackoff
// doubled per attempt, saturating so the retry lands no later than
// sim.Horizon however many retries MaxRetries allows.
func (a *Array) retryDelay(t sim.Time, attempt int) sim.Time {
	room := max(sim.Horizon-t, 0)
	if d := a.RetryBackoff; d == 0 || attempt < 62 && d <= room>>attempt {
		return d << attempt
	}
	return room
}

// readError consults the member's fault hook (if any) for a latent sector
// error on [page, page+pages).
func (a *Array) readError(now sim.Time, d, page, pages int) bool {
	f := a.caps[d].faulty
	return f != nil && f.ReadError(now, page, pages)
}

// verifyError consults the member's checksum verification (if any) for
// silent corruption on [page, page+pages). Only meaningful when
// VerifyReads is enabled.
func (a *Array) verifyError(now sim.Time, d, page, pages int) bool {
	v := a.caps[d].verifier
	return v != nil && v.VerifyError(now, page, pages)
}

// quarantined consults the health monitor's signal, if wired.
func (a *Array) quarantined(now sim.Time, d int) bool {
	return a.Quarantined != nil && a.Quarantined(now, d)
}

// busyDisk reports whether alive member d is collecting or quarantined —
// the per-disk busy signal the GC-aware write strategy weighs.
func (a *Array) busyDisk(now sim.Time, d int) bool {
	return a.Alive(d) && (a.disks[d].InGC(now) || a.quarantined(now, d))
}

// hedgeReason reports why extent e's home disk deserves a HedgedReads race:
// 1 when the disk is mid-GC, 2 when it is fail-slow, 0 for no hedge (a
// quarantined disk, reason 3, is raced regardless).
func (a *Array) hedgeReason(now sim.Time, e Extent) int64 {
	if a.disks[e.Disk].InGC(now) {
		return 1
	}
	if sd := a.caps[e.Disk].slow; sd != nil && sd.Slow(now) {
		return 2
	}
	return 0
}

// appendReconstruct appends to dst the sub-ops that regenerate extent e
// without reading it from disk e.Disk: the stripe's surviving data units
// plus enough parity at the same in-unit offsets. With one unit
// unavailable, P (or Q when P is also gone) suffices; with two (RAID6
// double failure, or a URE in degraded mode), both P and Q are needed. ok
// is false when the surviving redundancy cannot cover the losses — reading
// e is data loss — and the caller must discard the appended ops (truncate
// back to the pre-call length).
func (a *Array) appendReconstruct(dst []SubOp, e Extent) (items []SubOp, ok bool) {
	items = dst
	unitOff := e.Page - a.lay.UnitPage(e.Stripe)
	missingData := 0
	for idx := 0; idx < a.lay.DataDisks(); idx++ {
		d := a.lay.DataDisk(e.Stripe, idx)
		if d == e.Disk {
			continue
		}
		if !a.Alive(d) {
			missingData++
			continue
		}
		items = append(items, SubOp{Disk: d, Page: a.lay.UnitPage(e.Stripe) + unitOff, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe})
	}
	parityNeeded := 1 + missingData
	if pd := a.lay.ParityDisk(e.Stripe); a.Alive(pd) && parityNeeded > 0 {
		items = append(items, SubOp{Disk: pd, Page: a.lay.UnitPage(e.Stripe) + unitOff, Pages: e.Pages, Kind: OpParityRead, Stripe: e.Stripe})
		parityNeeded--
	}
	if qd := a.lay.QDisk(e.Stripe); qd >= 0 && a.Alive(qd) && parityNeeded > 0 {
		items = append(items, SubOp{Disk: qd, Page: a.lay.UnitPage(e.Stripe) + unitOff, Pages: e.Pages, Kind: OpParityRead, Stripe: e.Stripe})
		parityNeeded--
	}
	return items, parityNeeded <= 0
}

// admitCheck applies queue-depth admission control, claiming an in-flight
// slot for tracked requests. It returns ErrOverloaded when the array is
// full. Requests without a completion callback are not tracked — nothing
// would ever release their slot. The request's completion (see track)
// returns the slot.
func (a *Array) admitCheck(tracked bool) error {
	if a.QueueLimit > 0 && a.inflight >= a.QueueLimit {
		a.stats.Rejected++
		return ErrOverloaded
	}
	if tracked {
		a.inflight++
	}
	return nil
}

// request is a tracked request's admission slot.
type request struct {
	a              *Array
	done, complete func(now sim.Time) // complete is r.finish, bound once
}

// track returns the completion of an admitted request's n legs, which
// returns its admission slot and fires done; nil for an untracked request
// (done == nil).
func (a *Array) track(n int, done func(now sim.Time)) func(now sim.Time) {
	if done == nil {
		return nil
	}
	r, fresh := a.requests.Get()
	if fresh {
		r.a, r.complete = a, r.finish
	}
	r.done = done
	return a.eng.Join(n, r.complete)
}

func (r *request) finish(t sim.Time) {
	a, done := r.a, r.done
	a.inflight--
	r.done = nil
	a.requests.Put(r)
	done(t)
}

// Inflight returns how many admitted user requests have not yet completed.
func (a *Array) Inflight() int { return a.inflight }

// UnderPressure reports whether the admission queue is at least 3/4 full —
// the signal for shedding background work (hot-read migration, scrub
// pacing) before user I/O has to be rejected. Always false without a
// QueueLimit.
func (a *Array) UnderPressure() bool {
	return a.QueueLimit > 0 && a.inflight*4 >= a.QueueLimit*3
}

// Read services a user read of pages logical pages starting at page. done,
// if non-nil, fires when the last byte is available. A malformed range is
// returned as an error; nothing is issued.
//
// Read is a gcsvet hot-path root: it runs once per request, and hotalloc
// holds it and everything it reaches allocation-free.
//
//gcsvet:hot
func (a *Array) Read(now sim.Time, page, pages int, done func(now sim.Time)) error {
	return a.ReadCancelable(now, page, pages, nil, done)
}

// ReadCancelable is Read with a cancellation token: sub-ops not yet issued
// when tok fires (backed-off retries) are absorbed. It returns
// ErrOverloaded when admission control refuses the request.
func (a *Array) ReadCancelable(now sim.Time, page, pages int, tok *Cancel, done func(now sim.Time)) error {
	exts, err := a.lay.SplitExtentAppend(a.extScratch[:0], page, pages)
	if err != nil {
		return err
	}
	a.extScratch = exts
	if err := a.admitCheck(done != nil); err != nil {
		return err
	}
	a.stats.UserReads++
	// Pre-count sub-ops so a single barrier covers the whole request. The
	// item and hedge lists are per-array scratch: both are fully issued
	// before this call returns.
	items := a.itemScratch[:0]
	hedges := a.hedgeScratch[:0]
	for _, e := range exts {
		switch {
		case a.Alive(e.Disk):
			if kind, bad := a.readFault(now, e.Disk, e); bad {
				// Reconstruct the extent from the stripe's peers when
				// redundancy allows; otherwise record data loss and let the
				// read occupy the channel anyway (a real drive burns the
				// retry time before giving up).
				mark := len(items)
				var ok bool
				items, ok = a.appendReconstruct(items, e)
				a.noteReadFault(now, kind, e.Disk, e, ok)
				if ok {
					a.stats.DegradedReads++
					continue
				}
				items = items[:mark]
			}
			// A busy home disk races the direct read against a parity
			// reconstruction (always current: parity is updated in place even
			// for steered writes). An open breaker always does — the member is
			// suspect, not gone, and a pure reconstruct-read's N-2 data reads
			// plus parity are often slower under pressure than even the
			// fail-slow member; HedgedReads adds collecting and fail-slow
			// members. Without the redundancy to cover the extent, the read
			// goes direct.
			reason := int64(0)
			switch {
			case a.quarantined(now, e.Disk):
				reason = 3
			case a.HedgedReads:
				reason = a.hedgeReason(now, e)
			}
			if reason != 0 {
				if h := a.planHedge(e); h != nil {
					a.stats.HedgedReads++
					if reason == 3 {
						a.stats.QuarantineReads++
					}
					if a.Trace.Enabled() {
						a.Trace.Emit(now, obs.Event{Kind: obs.KHedgedRead, Dev: int32(e.Disk),
							Page: int64(e.Page), Pages: int32(e.Pages), Aux: reason})
					}
					hedges = append(hedges, h)
					continue
				}
			}
			items = append(items, SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe})
		default:
			// Degraded: the home disk is failed, so the extent exists only
			// through redundancy. FailDisk never admits more failures than
			// the layout tolerates, so reconstruction always succeeds here.
			a.stats.DegradedReads++
			if a.Trace.Enabled() {
				a.Trace.Emit(now, obs.Event{Kind: obs.KDegradedRead, Dev: int32(e.Disk),
					Page: int64(e.Page), Pages: int32(e.Pages)})
			}
			items, _ = a.appendReconstruct(items, e)
		}
	}
	cb := a.track(len(items)+len(hedges), done)
	for _, op := range items {
		a.issue(now, op, tok, cb)
	}
	for _, h := range hedges {
		h.issue(now, tok, cb)
	}
	a.itemScratch, a.hedgeScratch = items[:0], hedges[:0]
	return nil
}

// readFault reports whether reading extent e from disk d fails, and how: a
// latent sector error (KURE) or, with VerifyReads, silent corruption the
// end-to-end checksum catches (KChecksumError).
func (a *Array) readFault(now sim.Time, d int, e Extent) (obs.Kind, bool) {
	switch {
	case a.readError(now, d, e.Page, e.Pages):
		return obs.KURE, true
	case a.VerifyReads && a.verifyError(now, d, e.Page, e.Pages):
		return obs.KChecksumError, true
	}
	return 0, false
}

// noteReadFault counts and traces a read fault on disk d, served from
// redundancy when recovered, data loss otherwise.
func (a *Array) noteReadFault(now sim.Time, kind obs.Kind, d int, e Extent, recovered bool) {
	errs, fixed := &a.stats.ChecksumErrors, &a.stats.ChecksumFixed
	if kind == obs.KURE {
		errs, fixed = &a.stats.UREs, &a.stats.URERepaired
	}
	*errs++
	if a.Trace.Enabled() {
		a.Trace.Emit(now, obs.Event{Kind: kind, Dev: int32(d),
			Page: int64(e.Page), Pages: int32(e.Pages), Aux: boolInt(recovered)})
	}
	if recovered {
		*fixed++
	} else {
		a.stats.DataLossEvents++
	}
}

// hedge is one extent's read raced two ways: the direct sub-op against a
// parity reconstruction. It settles on the first leg to finish and is
// recycled once both are in. The loser is not cancelled — on real hardware
// both are queued and consume channel time — and keeps the token state of
// the settle instant.
type hedge struct {
	a       *Array
	direct  SubOp
	recon   []SubOp
	tok     Cancel // follows the request's token until the settle
	start   sim.Time
	done    func(now sim.Time)
	settled bool

	directDone, reconDone func(now sim.Time) // bound once per record
}

// planHedge prepares the race for extent e, or returns nil when the
// surviving redundancy cannot reconstruct it.
func (a *Array) planHedge(e Extent) *hedge {
	h, fresh := a.hedges.Get()
	if fresh {
		h.a = a
		h.directDone, h.reconDone = h.directWon, h.reconWon
	}
	var ok bool
	h.recon, ok = a.appendReconstruct(h.recon[:0], e)
	if !ok || len(h.recon) == 0 {
		a.hedges.Put(h)
		return nil
	}
	h.direct = SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe}
	return h
}

// issue starts both legs. The direct leg is issued first, so a tie
// deterministically resolves to it (the engine runs same-instant events in
// scheduling order).
func (h *hedge) issue(now sim.Time, tok *Cancel, done func(now sim.Time)) {
	a := h.a
	h.start, h.done, h.settled, h.tok = now, done, false, Cancel{parent: tok}
	a.issue(now, h.direct, &h.tok, h.directDone)
	recon := a.eng.Join(len(h.recon), h.reconDone)
	for _, op := range h.recon {
		a.issue(now, op, &h.tok, recon)
	}
}

func (h *hedge) directWon(t sim.Time) { h.leg(t, false) }
func (h *hedge) reconWon(t sim.Time)  { h.leg(t, true) }

// leg is one leg's completion: the first settles the read, the second
// recycles the record.
func (h *hedge) leg(t sim.Time, recon bool) {
	a := h.a
	if h.settled {
		h.done = nil
		a.hedges.Put(h)
		return
	}
	h.settled = true
	h.tok = Cancel{canceled: h.tok.Canceled()}
	if recon {
		a.stats.HedgeReconWins++
	}
	if a.Trace.Enabled() {
		a.Trace.Emit(t, obs.Event{Kind: obs.KHedgeWin, Dev: int32(h.direct.Disk),
			Page: int64(h.direct.Page), Pages: int32(h.direct.Pages),
			Aux: boolInt(recon), Aux2: int64(t - h.start)})
	}
	if h.done != nil {
		h.done(t)
	}
}

// stripeGroup is the portion of a write touching one stripe. exts is a
// subslice of the request's extent list, valid only until the enclosing
// WriteCancelable returns (writeStripe consumes it synchronously).
type stripeGroup struct {
	stripe int
	exts   []Extent
}

// Write services a user write. Stripes touched in full are written
// without a read phase; partial stripes use two-phase read-modify-write
// (or reconstruct-write when degraded), with phase 2 starting only after
// every phase-1 read has completed — matching the dependency structure of
// a real RAID controller.
//
// Write is a gcsvet hot-path root: it runs once per request, and hotalloc
// holds it and everything it reaches allocation-free.
//
//gcsvet:hot
func (a *Array) Write(now sim.Time, page, pages int, done func(now sim.Time)) error {
	return a.WriteCancelable(now, page, pages, nil, done)
}

// WriteCancelable is Write with a cancellation token: sub-ops not yet
// issued when tok fires (the RMW write phase behind its reads) are
// absorbed the way stale sub-ops are. It returns ErrOverloaded when
// admission control refuses the request.
func (a *Array) WriteCancelable(now sim.Time, page, pages int, tok *Cancel, done func(now sim.Time)) error {
	exts, err := a.lay.SplitExtentAppend(a.extScratch[:0], page, pages)
	if err != nil {
		return err
	}
	a.extScratch = exts
	if err := a.admitCheck(done != nil); err != nil {
		return err
	}
	a.stats.UserWrites++

	// Group extents by stripe. Equal-stripe extents are adjacent
	// in SplitExtent's logical-order output, so each group is a subslice of
	// exts — no per-group allocation.
	groups := a.groupScratch[:0]
	start := 0
	for i := 1; i <= len(exts); i++ {
		if i == len(exts) || exts[i].Stripe != exts[start].Stripe {
			groups = append(groups, stripeGroup{stripe: exts[start].Stripe, exts: exts[start:i]})
			start = i
		}
	}
	cb := a.track(len(groups), done)
	for _, g := range groups {
		a.writeStripe(now, g, tok, cb)
	}
	a.groupScratch = groups[:0]
	return nil
}

// writeStripe performs the write of one stripe's worth of extents.
func (a *Array) writeStripe(now sim.Time, g stripeGroup, tok *Cancel, done func(now sim.Time)) {
	lay := a.lay
	st := g.stripe
	base := lay.UnitPage(st)

	w, fresh := a.stripeWrites.Get()
	if fresh {
		w.a = a
		w.kick, w.complete = w.issuePhase2, w.finish
	}
	w.tok, w.done = tok, done

	// Write-ahead intent: the stripe is marked dirty before any leg is
	// issued, so a power cut at any later instant finds the mark in the
	// journal. The write legs are registered once the phase-2 list exists.
	if a.Intents != nil {
		w.it = a.Intents.mark(st)
	}

	lo, hi, written, covered := a.span(g)
	parityPages := hi - lo
	fullStripe := written == lay.DataDisks()*lay.UnitPages

	// Does any failed disk hold one of this stripe's data units?
	failedData := false
	for _, f := range a.failed {
		if lay.DataIndex(st, f) >= 0 {
			failedData = true
			break
		}
	}

	// Phase 2 (writes) shared by every path below; it waits in the record
	// for the phase-1 reads.
	phase2 := w.phase2[:0]
	for _, e := range g.exts {
		if a.Alive(e.Disk) {
			phase2 = append(phase2, SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataWrite, Stripe: st})
		}
		// A write whose unit lives on the failed disk exists only through
		// parity — no data sub-op.
	}
	n := len(phase2)
	phase2 = a.appendParity(phase2, st, base+lo, parityPages, OpParityWrite)
	a.stats.ParityPages += int64((len(phase2) - n) * parityPages)

	// Phase 1 (reads): per-array scratch, fully issued before this call
	// returns.
	phase1 := a.phase1Scratch[:0]
	switch {
	case fullStripe:
		a.stats.FullStripes++
		// No reads needed: parity is computed from the new data alone.
	case failedData:
		// Reconstruct-write: the failed unit's old contents are needed for
		// parity, so read every surviving data unit in full over [lo,hi).
		a.stats.ReconstructWr++
		for idx := 0; idx < lay.DataDisks(); idx++ {
			d := lay.DataDisk(st, idx)
			if !a.Alive(d) {
				continue
			}
			phase1 = append(phase1, SubOp{Disk: d, Page: base + lo, Pages: parityPages, Kind: OpOldDataRead, Stripe: st})
		}
		phase1 = a.appendParity(phase1, st, base+lo, parityPages, OpParityRead)
	case a.gcAvoidWanted(now, g, lo, hi, covered):
		// GC-aware reconstruct-write: the old-data read of classic RMW
		// would queue behind garbage collection, so parity is re-encoded
		// from the stripe's other data units instead — every read lands on
		// a healthy disk. Units partially covered by the write still need
		// their uncovered sub-ranges read.
		a.stats.GCAvoidWrites++
		for idx := 0; idx < lay.DataDisks(); idx++ {
			d := lay.DataDisk(st, idx)
			if !a.Alive(d) {
				continue
			}
			c := covered[idx]
			if c[0] < 0 {
				phase1 = append(phase1, SubOp{Disk: d, Page: base + lo, Pages: parityPages, Kind: OpOldDataRead, Stripe: st})
				continue
			}
			if c[0] > lo {
				phase1 = append(phase1, SubOp{Disk: d, Page: base + lo, Pages: c[0] - lo, Kind: OpOldDataRead, Stripe: st})
			}
			if c[1] < hi {
				phase1 = append(phase1, SubOp{Disk: d, Page: base + c[1], Pages: hi - c[1], Kind: OpOldDataRead, Stripe: st})
			}
		}
	default:
		// Classic RMW: old data of the written extents + old parity.
		a.stats.RMWStripes++
		for _, e := range g.exts {
			phase1 = append(phase1, SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpOldDataRead, Stripe: st})
		}
		phase1 = a.appendParity(phase1, st, base+lo, parityPages, OpParityRead)
	}

	w.phase2 = phase2
	if w.it != nil {
		a.Intents.register(w.it, phase2)
		if a.Intents.Journaled && a.Trace.Enabled() {
			a.Trace.Emit(now, obs.Event{Kind: obs.KJournalMark, Dev: -1, Page: -1,
				Aux: int64(st), Aux2: int64(len(phase2))})
		}
	}

	if len(phase1) == 0 {
		// No read phase (full-stripe write, or nothing readable): the write
		// phase starts now.
		w.issuePhase2(now)
		return
	}
	cb := a.eng.Join(len(phase1), w.kick)
	for _, op := range phase1 {
		a.issue(now, op, tok, cb)
	}
	a.phase1Scratch = phase1[:0]
}

// stripeWrite is one stripe write in flight: the phase-2 list its
// phase-1 reads release, and its completion once every write leg is in —
// the intent-journal clear, when the journal is armed, then done.
type stripeWrite struct {
	a              *Array
	phase2         []SubOp
	tok            *Cancel
	done           func(now sim.Time)
	it             *intent            // the stripe's journal entry, or nil
	kick, complete func(now sim.Time) // bound once per record
}

// issuePhase2 issues the write phase. An empty list — every target on the
// failed disk — completes trivially (data is lost only if redundancy is
// already gone, which FailDisk prevents). With nothing to report to, the
// legs carry no callback and the record is recycled at once.
func (w *stripeWrite) issuePhase2(t sim.Time) {
	a := w.a
	var fin func(now sim.Time)
	if w.done != nil || w.it != nil {
		fin = w.complete
	}
	if w.it != nil {
		w.it.issued = true
	}
	if len(w.phase2) == 0 {
		if fin != nil {
			a.eng.At(t, fin)
		} else {
			a.putStripeWrite(w)
		}
		return
	}
	cb := a.eng.Join(len(w.phase2), fin)
	for i, op := range w.phase2 {
		leg := cb
		if w.it != nil {
			w.it.fan = cb
			leg = w.it.legs[i].fire
		}
		a.issue(t, op, w.tok, leg)
	}
	if fin == nil {
		a.putStripeWrite(w)
	}
}

// finish is the stripe write's completion.
func (w *stripeWrite) finish(t sim.Time) {
	a, done, it := w.a, w.done, w.it
	a.putStripeWrite(w)
	if it != nil {
		a.Intents.clear(it)
		if a.Intents.Journaled && a.Trace.Enabled() {
			a.Trace.Emit(t, obs.Event{Kind: obs.KJournalClear, Dev: -1, Page: -1,
				Aux: int64(it.stripe)})
		}
	}
	if done != nil {
		done(t)
	}
}

func (a *Array) putStripeWrite(w *stripeWrite) {
	w.tok, w.done, w.it = nil, nil, nil
	a.stripeWrites.Put(w)
}

// gcAvoidWanted reports whether a partial-stripe write should use the
// GC-aware reconstruct-write path. It compares how many phase-1 read pages
// each strategy would send to currently-busy disks — collecting or
// health-quarantined — and switches to reconstruct-write only when that
// strictly reduces the exposure.
func (a *Array) gcAvoidWanted(now sim.Time, g stripeGroup, lo, hi int, covered [][2]int) bool {
	if !a.GCAwareWrites {
		return false
	}
	lay := a.lay
	st := g.stripe

	// RMW phase 1: old data of written units + parity reads.
	rmw := 0
	for _, e := range g.exts {
		if a.busyDisk(now, e.Disk) {
			rmw += e.Pages
		}
	}
	if a.busyDisk(now, lay.ParityDisk(st)) {
		rmw += hi - lo
	}
	if qd := lay.QDisk(st); qd >= 0 && a.busyDisk(now, qd) {
		rmw += hi - lo
	}

	// Reconstruct-write phase 1: the other units (and written units'
	// uncovered sub-ranges), no parity reads.
	recon := 0
	for idx := 0; idx < lay.DataDisks(); idx++ {
		d := lay.DataDisk(st, idx)
		if !a.busyDisk(now, d) {
			continue
		}
		if c := covered[idx]; c[0] >= 0 {
			recon += (c[0] - lo) + (hi - c[1])
		} else {
			recon += hi - lo
		}
	}
	return recon < rmw
}
