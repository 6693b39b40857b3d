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
// touching the disks. A nil *Cancel is the never-cancelled token.
type Cancel struct{ canceled bool }

// Cancel marks the token cancelled. Nil-safe.
func (c *Cancel) Cancel() {
	if c != nil {
		c.canceled = true
	}
}

// Canceled reports whether the token has been cancelled. Nil-safe.
func (c *Cancel) Canceled() bool { return c != nil && c.canceled }

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
	// extra load for GC-phase tail latency. RAID5/6 only.
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

	mirrorNext int // round-robin cursor for RAID1 read balancing
	inflight   int // user requests admitted but not yet completed
	stats      Stats

	// caps caches each member's optional capability interfaces (Faulty,
	// Verifier, SlowDisk, TransientFaulty) so the per-sub-op fault checks
	// are a nil test instead of a type assertion. Rebound whenever the
	// disk set changes (RepairDisk).
	caps []diskCaps

	// Scratch buffers reused across requests. The engine is single-threaded
	// and every buffer below is fully consumed before the request's public
	// entry point returns (the Route hook never re-enters the array), so a
	// request in steady state allocates no slices. Only writeStripe's
	// phase-2 op list outlives its call — a closure holds it until phase 1
	// completes — so it comes from the subopFree free list and is returned
	// once issued.
	extScratch    []Extent
	itemScratch   []SubOp
	hedgeScratch  []hedge
	groupScratch  []stripeGroup
	phase1Scratch []SubOp
	coverScratch  [][2]int
	subopFree     [][]SubOp

	// Intents, when non-nil, is the write-ahead dirty-stripe intent
	// journal: every RAID5/6 stripe write marks its stripe before the
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

// getSubOps takes a slice from the free list (or makes one); putSubOps
// returns it once its ops are issued.
func (a *Array) getSubOps() []SubOp {
	if n := len(a.subopFree); n > 0 {
		s := a.subopFree[n-1]
		a.subopFree = a.subopFree[:n-1]
		return s[:0]
	}
	//lint:allow hotalloc free-list miss: allocates only while the pool warms up, steady state reuses
	return make([]SubOp, 0, 8)
}

func (a *Array) putSubOps(s []SubOp) { a.subopFree = append(a.subopFree, s) }

// cover returns the per-data-unit covered-range scratch, every entry reset
// to the "not covered" sentinel {-1,-1}.
func (a *Array) cover() [][2]int {
	n := a.lay.DataDisks()
	if len(a.coverScratch) < n {
		a.coverScratch = make([][2]int, n)
	}
	c := a.coverScratch[:n]
	for i := range c {
		c[i] = [2]int{-1, -1}
	}
	return c
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

// maxFailures is the layout's fault tolerance.
func (a *Array) maxFailures() int {
	switch a.lay.Level {
	case RAID6:
		return 2
	case RAID1:
		return a.lay.Disks - 1
	case RAID5:
		return 1
	default:
		return 0
	}
}

// FailDisk marks member d failed. Subsequent reads reconstruct from the
// survivors; writes use reconstruct-write. RAID6 tolerates a second
// failure (the paper's §III-D second-failure scenario).
func (a *Array) FailDisk(d int) error {
	if d < 0 || d >= a.lay.Disks {
		return fmt.Errorf("raid: no disk %d", d)
	}
	if !a.alive(d) {
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

func (a *Array) alive(d int) bool {
	for _, f := range a.failed {
		if f == d {
			return false
		}
	}
	return true
}

// Alive reports whether member d is currently healthy (not failed).
func (a *Array) Alive(d int) bool { return a.alive(d) }

// SpareRedundancy is how many additional member losses the array can absorb
// right now: the layout's fault tolerance minus the failures already
// sustained. Zero means the survivors are the last copy of the data — the
// window in which one more loss (or an unrecoverable read error during
// rebuild) is data loss.
func (a *Array) SpareRedundancy() int { return a.maxFailures() - len(a.failed) }

// issue routes one sub-op to the member disk (or the Route hook).
func (a *Array) issue(now sim.Time, op SubOp, tok *Cancel, done func(now sim.Time)) {
	if tok.Canceled() {
		// The request's deadline passed while this op waited on an earlier
		// phase (an RMW write phase behind its reads, a backed-off retry).
		// It is absorbed exactly like a stale sub-op: completed immediately
		// without touching the disk, so the enclosing barrier still settles.
		a.stats.CanceledSubOps++
		if done != nil {
			a.eng.At(now, done)
		}
		return
	}
	if !a.alive(op.Disk) {
		// The disk failed after this op's plan was made (a failure injected
		// between the read and write phases of an in-flight RMW). The write
		// to the failed member is simply skipped — its data is covered by
		// the stripe's parity and regenerated by the rebuild — and the op
		// completes without touching the dead device.
		a.stats.StaleSubOps++
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
		backoff := a.RetryBackoff << attempt
		a.stats.Retries++
		if a.Trace.Enabled() {
			a.Trace.Emit(t, obs.Event{Kind: obs.KRetry, Dev: int32(op.Disk),
				Page: int64(op.Page), Pages: int32(op.Pages),
				Aux: int64(attempt + 1), Aux2: int64(backoff)})
		}
		//lint:allow hotalloc backoff re-issue closure, same opt-in transient-fault path as the retry closure above
		a.eng.At(t+backoff, func(t2 sim.Time) {
			if tok.Canceled() {
				a.stats.CanceledSubOps++
				if done != nil {
					done(t2)
				}
				return
			}
			if !a.alive(op.Disk) {
				a.stats.StaleSubOps++
				if done != nil {
					done(t2)
				}
				return
			}
			a.issueRead(t2, op, tok, done, attempt+1)
		})
	}
	// The failed attempt needs a completion event to drive the retry even
	// when the caller passed no done callback.
	must(a.disks[op.Disk].Read(now, op.Page, op.Pages, cb))
}

// barrier returns a completion callback that fires done after n calls,
// passing the latest completion time. With done == nil it returns nil.
func barrier(n int, done func(now sim.Time)) func(now sim.Time) {
	if done == nil {
		return nil
	}
	remain := n
	//lint:allow hotalloc sanctioned one-closure-per-request fan-in barrier (PR 7); the free-list and scratch design budgets exactly this
	return func(t sim.Time) {
		remain--
		if remain == 0 {
			done(t)
		}
	}
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
	return a.alive(d) && (a.disks[d].InGC(now) || a.quarantined(now, d))
}

// hedgeReason reports why extent e's home disk deserves a hedged read:
// 1 when the disk is mid-GC, 2 when it is fail-slow, 3 when the health
// monitor has quarantined it, 0 for no hedge.
func (a *Array) hedgeReason(now sim.Time, e Extent) int64 {
	if a.lay.Level != RAID5 && a.lay.Level != RAID6 {
		return 0
	}
	if a.disks[e.Disk].InGC(now) {
		return 1
	}
	if sd := a.caps[e.Disk].slow; sd != nil && sd.Slow(now) {
		return 2
	}
	if a.quarantined(now, e.Disk) {
		return 3
	}
	return 0
}

// reconstructItems returns the sub-ops that regenerate extent e without
// reading it from disk e.Disk: the stripe's surviving data units plus
// enough parity at the same in-unit offsets. With one unit unavailable, P
// (or Q when P is also gone) suffices; with two (RAID6 double failure, or
// a URE in degraded mode), both P and Q are needed. ok is false when the
// surviving redundancy cannot cover the losses — reading e is data loss.
func (a *Array) reconstructItems(e Extent) (items []SubOp, ok bool) {
	return a.appendReconstruct(nil, e)
}

// appendReconstruct is reconstructItems appending into dst; when ok is
// false the caller must discard the appended ops (truncate back to the
// pre-call length).
func (a *Array) appendReconstruct(dst []SubOp, e Extent) (items []SubOp, ok bool) {
	items = dst
	unitOff := e.Page - a.lay.UnitPage(e.Stripe)
	missingData := 0
	for idx := 0; idx < a.lay.DataDisks(); idx++ {
		d := a.lay.DataDisk(e.Stripe, idx)
		if d == e.Disk {
			continue
		}
		if !a.alive(d) {
			missingData++
			continue
		}
		items = append(items, SubOp{Disk: d, Page: a.lay.UnitPage(e.Stripe) + unitOff, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe})
	}
	parityNeeded := 1 + missingData
	if pd := a.lay.ParityDisk(e.Stripe); pd >= 0 && a.alive(pd) && parityNeeded > 0 {
		items = append(items, SubOp{Disk: pd, Page: a.lay.UnitPage(e.Stripe) + unitOff, Pages: e.Pages, Kind: OpParityRead, Stripe: e.Stripe})
		parityNeeded--
	}
	if qd := a.lay.QDisk(e.Stripe); qd >= 0 && a.alive(qd) && parityNeeded > 0 {
		items = append(items, SubOp{Disk: qd, Page: a.lay.UnitPage(e.Stripe) + unitOff, Pages: e.Pages, Kind: OpParityRead, Stripe: e.Stripe})
		parityNeeded--
	}
	return items, parityNeeded <= 0
}

// hedge is one extent's read raced two ways: the direct sub-op against a
// parity reconstruction from the stripe's peers.
type hedge struct {
	direct SubOp
	recon  []SubOp
}

// admitCheck applies queue-depth admission control, claiming an in-flight
// slot for tracked requests. It returns ErrOverloaded when the array is
// full. Requests without a completion callback are not tracked — nothing
// would ever release their slot. The slot is returned by the callback
// releaseBarrier builds for the same request.
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

// releaseBarrier is the request-level completion barrier: after n calls it
// returns the admission slot claimed by admitCheck and fires done. Folding
// the release into the barrier closure costs one allocation per request
// where a separate admit wrapper plus barrier used to cost two. With
// done == nil it returns nil (untracked request, no slot to return).
func (a *Array) releaseBarrier(n int, done func(now sim.Time)) func(now sim.Time) {
	if done == nil {
		return nil
	}
	remain := n
	//lint:allow hotalloc sanctioned request-completion barrier: one allocation per request, folded with the admission release (PR 7)
	return func(t sim.Time) {
		remain--
		if remain != 0 {
			return
		}
		a.inflight--
		done(t)
	}
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
		case a.lay.Level == RAID1:
			d := a.pickMirror(now)
			if a.readError(now, d, e.Page, e.Pages) {
				a.stats.UREs++
				alt, ok := a.pickMirrorWithout(now, d, e.Page, e.Pages)
				if a.Trace.Enabled() {
					a.Trace.Emit(now, obs.Event{Kind: obs.KURE, Dev: int32(d),
						Page: int64(e.Page), Pages: int32(e.Pages), Aux: boolInt(ok)})
				}
				if ok {
					a.stats.URERepaired++
					d = alt
				} else {
					a.stats.DataLossEvents++
				}
			} else if a.VerifyReads && a.verifyError(now, d, e.Page, e.Pages) {
				// Silent corruption on the chosen mirror: fall over to a
				// clean copy, exactly as the URE path does.
				a.stats.ChecksumErrors++
				alt, ok := a.pickMirrorWithout(now, d, e.Page, e.Pages)
				if a.Trace.Enabled() {
					a.Trace.Emit(now, obs.Event{Kind: obs.KChecksumError, Dev: int32(d),
						Page: int64(e.Page), Pages: int32(e.Pages), Aux: boolInt(ok)})
				}
				if ok {
					a.stats.ChecksumFixed++
					d = alt
				} else {
					a.stats.DataLossEvents++
				}
			}
			items = append(items, SubOp{Disk: d, Page: e.Page, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe})
		case a.alive(e.Disk):
			if a.readError(now, e.Disk, e.Page, e.Pages) {
				// Latent sector error: reconstruct the extent from the
				// stripe's peers when redundancy allows; otherwise record
				// data loss and let the read occupy the channel anyway (a
				// real drive burns the retry time before giving up).
				a.stats.UREs++
				mark := len(items)
				var ok bool
				items, ok = a.appendReconstruct(items, e)
				if a.Trace.Enabled() {
					a.Trace.Emit(now, obs.Event{Kind: obs.KURE, Dev: int32(e.Disk),
						Page: int64(e.Page), Pages: int32(e.Pages), Aux: boolInt(ok)})
				}
				if ok {
					a.stats.URERepaired++
					a.stats.DegradedReads++
					continue
				}
				items = items[:mark]
				a.stats.DataLossEvents++
			} else if a.VerifyReads && a.verifyError(now, e.Disk, e.Page, e.Pages) {
				// The read itself would succeed but deliver corrupt data:
				// the end-to-end checksum catches it, and the extent is
				// served from redundancy instead.
				a.stats.ChecksumErrors++
				mark := len(items)
				var ok bool
				items, ok = a.appendReconstruct(items, e)
				if a.Trace.Enabled() {
					a.Trace.Emit(now, obs.Event{Kind: obs.KChecksumError, Dev: int32(e.Disk),
						Page: int64(e.Page), Pages: int32(e.Pages), Aux: boolInt(ok)})
				}
				if ok {
					a.stats.ChecksumFixed++
					a.stats.DegradedReads++
					continue
				}
				items = items[:mark]
				a.stats.DataLossEvents++
			}
			if a.quarantined(now, e.Disk) {
				// An open breaker means the member is suspect, not gone: race
				// the direct read against a parity reconstruction from the
				// stripe's peers and settle on whichever finishes first. A
				// pure reconstruct-read would amplify every quarantined read
				// into N-2 data reads plus parity on the surviving members,
				// and under pressure that fan-in is often slower than even
				// the fail-slow member — the race takes the minimum. Parity
				// is updated in place even for steered writes, so the
				// reconstruction is always current. Falls through to a plain
				// direct read when the surviving redundancy cannot cover the
				// extent.
				if rec, ok := a.reconstructItems(e); ok && len(rec) > 0 {
					a.stats.HedgedReads++
					a.stats.QuarantineReads++
					if a.Trace.Enabled() {
						a.Trace.Emit(now, obs.Event{Kind: obs.KHedgedRead, Dev: int32(e.Disk),
							Page: int64(e.Page), Pages: int32(e.Pages), Aux: 3})
					}
					hedges = append(hedges, hedge{
						direct: SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe},
						recon:  rec,
					})
					continue
				}
			}
			if a.HedgedReads {
				if reason := a.hedgeReason(now, e); reason != 0 {
					if rec, ok := a.reconstructItems(e); ok && len(rec) > 0 {
						a.stats.HedgedReads++
						if a.Trace.Enabled() {
							a.Trace.Emit(now, obs.Event{Kind: obs.KHedgedRead, Dev: int32(e.Disk),
								Page: int64(e.Page), Pages: int32(e.Pages), Aux: reason})
						}
						hedges = append(hedges, hedge{
							direct: SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataRead, Stripe: e.Stripe},
							recon:  rec,
						})
						continue
					}
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
	cb := a.releaseBarrier(len(items)+len(hedges), done)
	for _, op := range items {
		a.issue(now, op, tok, cb)
	}
	for _, h := range hedges {
		a.issueHedge(now, h, tok, cb)
	}
	a.itemScratch, a.hedgeScratch = items[:0], hedges[:0]
	return nil
}

// issueHedge races h.direct against the parity reconstruction h.recon and
// reports completion when the first leg finishes. The losing leg is not
// cancelled — as on real hardware both requests are already queued and
// still consume channel time. The direct leg is issued first, so a tie
// deterministically resolves to it (the engine runs same-instant events in
// scheduling order).
func (a *Array) issueHedge(now sim.Time, h hedge, tok *Cancel, done func(now sim.Time)) {
	settled := false
	//lint:allow hotalloc hedge settle factory runs only when HedgedReads is enabled and a member is in GC
	settle := func(reconWon bool) func(t sim.Time) {
		//lint:allow hotalloc per-leg settle closure, same opt-in hedged-read path
		return func(t sim.Time) {
			if settled {
				return
			}
			settled = true
			if reconWon {
				a.stats.HedgeReconWins++
			}
			if a.Trace.Enabled() {
				a.Trace.Emit(t, obs.Event{Kind: obs.KHedgeWin, Dev: int32(h.direct.Disk),
					Page: int64(h.direct.Page), Pages: int32(h.direct.Pages),
					Aux: boolInt(reconWon), Aux2: int64(t - now)})
			}
			if done != nil {
				done(t)
			}
		}
	}
	a.issue(now, h.direct, tok, settle(false))
	reconDone := barrier(len(h.recon), settle(true))
	for _, op := range h.recon {
		a.issue(now, op, tok, reconDone)
	}
}

// pickMirrorWithout returns an alive mirror other than skip whose copy of
// [page, page+pages) reads cleanly, for RAID1 URE and corruption recovery.
// With VerifyReads enabled a silently-corrupt copy is rejected too.
func (a *Array) pickMirrorWithout(now sim.Time, skip, page, pages int) (int, bool) {
	for d := 0; d < a.lay.Disks; d++ {
		if d == skip || !a.alive(d) {
			continue
		}
		if a.readError(now, d, page, pages) {
			continue
		}
		if a.VerifyReads && a.verifyError(now, d, page, pages) {
			continue
		}
		return d, true
	}
	return -1, false
}

// pickMirror returns the next alive mirror for RAID1 read balancing,
// preferring members the health monitor has not quarantined (with every
// mirror quarantined, any alive one serves).
func (a *Array) pickMirror(now sim.Time) int {
	for i := 0; i < a.lay.Disks; i++ {
		d := (a.mirrorNext + i) % a.lay.Disks
		if a.alive(d) && !a.quarantined(now, d) {
			a.mirrorNext = (d + 1) % a.lay.Disks
			return d
		}
	}
	for i := 0; i < a.lay.Disks; i++ {
		d := (a.mirrorNext + i) % a.lay.Disks
		if a.alive(d) {
			a.mirrorNext = (d + 1) % a.lay.Disks
			return d
		}
	}
	panic("raid: no surviving mirror")
}

// stripeGroup is the portion of a write touching one stripe. exts is a
// subslice of the request's extent list, valid only until the enclosing
// WriteCancelable returns (writeStripe consumes it synchronously).
type stripeGroup struct {
	stripe int
	exts   []Extent
}

// Write services a user write. RAID5/6 stripes touched in full are written
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

	switch a.lay.Level {
	case RAID0:
		cb := a.releaseBarrier(len(exts), done)
		for _, e := range exts {
			a.issue(now, SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataWrite, Stripe: e.Stripe}, tok, cb)
		}
		return nil
	case RAID1:
		alive := 0
		for d := 0; d < a.lay.Disks; d++ {
			if a.alive(d) {
				alive++
			}
		}
		cb := a.releaseBarrier(len(exts)*alive, done)
		for _, e := range exts {
			for d := 0; d < a.lay.Disks; d++ {
				if a.alive(d) {
					a.issue(now, SubOp{Disk: d, Page: e.Page, Pages: e.Pages, Kind: OpDataWrite, Stripe: e.Stripe}, tok, cb)
				}
			}
		}
		return nil
	}

	// RAID5/6: group extents by stripe. Equal-stripe extents are adjacent
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
	cb := a.releaseBarrier(len(groups), done)
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

	// Write-ahead intent: the stripe is marked dirty before any leg is
	// issued, so a power cut at any later instant finds the mark in the
	// journal. The write legs are registered once the phase-2 list exists.
	var it *intent
	if a.Intents != nil {
		it = a.Intents.mark(st)
		done = a.journalClear(it, done)
	}

	// Union of touched in-unit offsets (contiguous for a contiguous write).
	lo, hi := lay.UnitPages, 0
	covered := 0
	for _, e := range g.exts {
		off := e.Page - base
		if off < lo {
			lo = off
		}
		if off+e.Pages > hi {
			hi = off + e.Pages
		}
		covered += e.Pages
	}
	parityPages := hi - lo
	fullStripe := covered == lay.DataDisks()*lay.UnitPages

	pd := lay.ParityDisk(st)
	qd := lay.QDisk(st)

	// Does any failed disk hold one of this stripe's data units?
	failedData := false
	for _, f := range a.failed {
		if lay.DataIndex(st, f) >= 0 {
			failedData = true
			break
		}
	}

	// Phase 2 (writes) shared by every path below. The list may be retained
	// by the phase-1 barrier until the reads complete, so it comes from the
	// free list rather than the per-call scratch.
	phase2 := a.getSubOps()
	for _, e := range g.exts {
		if a.alive(e.Disk) {
			phase2 = append(phase2, SubOp{Disk: e.Disk, Page: e.Page, Pages: e.Pages, Kind: OpDataWrite, Stripe: st})
		}
		// A write whose unit lives on the failed disk exists only through
		// parity — no data sub-op.
	}
	if pd >= 0 && a.alive(pd) {
		phase2 = append(phase2, SubOp{Disk: pd, Page: base + lo, Pages: parityPages, Kind: OpParityWrite, Stripe: st})
		a.stats.ParityPages += int64(parityPages)
	}
	if qd >= 0 && a.alive(qd) {
		phase2 = append(phase2, SubOp{Disk: qd, Page: base + lo, Pages: parityPages, Kind: OpParityWrite, Stripe: st})
		a.stats.ParityPages += int64(parityPages)
	}

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
			if !a.alive(d) {
				continue
			}
			phase1 = append(phase1, SubOp{Disk: d, Page: base + lo, Pages: parityPages, Kind: OpOldDataRead, Stripe: st})
		}
		if pd >= 0 && a.alive(pd) {
			phase1 = append(phase1, SubOp{Disk: pd, Page: base + lo, Pages: parityPages, Kind: OpParityRead, Stripe: st})
		}
		if qd >= 0 && a.alive(qd) {
			phase1 = append(phase1, SubOp{Disk: qd, Page: base + lo, Pages: parityPages, Kind: OpParityRead, Stripe: st})
		}
	case a.gcAvoidWanted(now, g):
		// GC-aware reconstruct-write: the old-data read of classic RMW
		// would queue behind garbage collection, so parity is re-encoded
		// from the stripe's other data units instead — every read lands on
		// a healthy disk. Units partially covered by the write still need
		// their uncovered sub-ranges read.
		a.stats.GCAvoidWrites++
		covered := a.cover()
		for _, e := range g.exts {
			covered[e.DataIdx] = [2]int{e.Page - base, e.Page - base + e.Pages}
		}
		for idx := 0; idx < lay.DataDisks(); idx++ {
			d := lay.DataDisk(st, idx)
			if !a.alive(d) {
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
		if pd >= 0 && a.alive(pd) {
			phase1 = append(phase1, SubOp{Disk: pd, Page: base + lo, Pages: parityPages, Kind: OpParityRead, Stripe: st})
		}
		if qd >= 0 && a.alive(qd) {
			phase1 = append(phase1, SubOp{Disk: qd, Page: base + lo, Pages: parityPages, Kind: OpParityRead, Stripe: st})
		}
	}

	if it != nil {
		a.Intents.register(it, phase2)
		if a.Intents.Journaled && a.Trace.Enabled() {
			a.Trace.Emit(now, obs.Event{Kind: obs.KJournalMark, Dev: -1, Page: -1,
				Aux: int64(st), Aux2: int64(len(phase2))})
		}
		if len(phase1) == 0 {
			a.issuePhase2Journal(now, phase2, tok, done, it)
			return
		}
		//lint:allow hotalloc phase-2 kick closure on the opt-in journal path (a.Intents != nil)
		cb := barrier(len(phase1), func(t sim.Time) { a.issuePhase2Journal(t, phase2, tok, done, it) })
		for _, op := range phase1 {
			a.issue(now, op, tok, cb)
		}
		a.phase1Scratch = phase1[:0]
		return
	}

	if len(phase1) == 0 {
		// No read phase (full-stripe write, or nothing readable): the write
		// phase starts now, with no deferred closure needed.
		a.issuePhase2(now, phase2, tok, done)
		return
	}
	//lint:allow hotalloc sanctioned phase-2 kick: one deferred closure per partial-stripe write (PR 7)
	cb := barrier(len(phase1), func(t sim.Time) { a.issuePhase2(t, phase2, tok, done) })
	for _, op := range phase1 {
		a.issue(now, op, tok, cb)
	}
	a.phase1Scratch = phase1[:0]
}

// issuePhase2 issues the write phase of one stripe write and returns the
// sub-op list to the free list. With an empty list — every target (data
// and parity) is on the failed disk — the write completes trivially (data
// is lost only if redundancy is already gone, which FailDisk prevents).
func (a *Array) issuePhase2(t sim.Time, phase2 []SubOp, tok *Cancel, done func(now sim.Time)) {
	if len(phase2) == 0 {
		a.putSubOps(phase2)
		if done != nil {
			a.eng.At(t, done)
		}
		return
	}
	cb := barrier(len(phase2), done)
	for _, op := range phase2 {
		a.issue(t, op, tok, cb)
	}
	a.putSubOps(phase2)
}

// gcAvoidWanted reports whether a partial-stripe write should use the
// GC-aware reconstruct-write path. It compares how many phase-1 read pages
// each strategy would send to currently-busy disks — collecting or
// health-quarantined — and switches to reconstruct-write only when that
// strictly reduces the exposure.
func (a *Array) gcAvoidWanted(now sim.Time, g stripeGroup) bool {
	if !a.GCAwareWrites {
		return false
	}
	if a.lay.Level != RAID5 && a.lay.Level != RAID6 {
		return false
	}
	lay := a.lay
	st := g.stripe
	base := lay.UnitPage(st)

	lo, hi := lay.UnitPages, 0
	covered := a.cover()
	for _, e := range g.exts {
		off := e.Page - base
		if off < lo {
			lo = off
		}
		if off+e.Pages > hi {
			hi = off + e.Pages
		}
		covered[e.DataIdx] = [2]int{off, off + e.Pages}
	}

	// RMW phase 1: old data of written units + parity reads.
	rmw := 0
	for _, e := range g.exts {
		if a.busyDisk(now, e.Disk) {
			rmw += e.Pages
		}
	}
	if pd := lay.ParityDisk(st); pd >= 0 && a.busyDisk(now, pd) {
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
