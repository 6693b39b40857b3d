// Package obs provides the simulator's structured event tracer: a single
// low-overhead sink that every layer of the stack (sim engine, SSD devices,
// RAID array, steering controller, fault injector, rebuild engine) emits
// scheduling decisions into as they happen.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. A nil *Tracer is the disabled tracer: every
//     Emit on it is a nil-check and a return, and emit sites guard any
//     extra field computation behind Enabled(). The replay hot path must
//     not regress when tracing is off.
//  2. Deterministic output. The tracer is driven by the single-threaded
//     simulation engine, so for a fixed Config and seed the emitted byte
//     stream is identical run to run (the determinism tests assert this).
//     One Tracer must not be shared between concurrently running engines.
//  3. Parseable without a schema registry. Events are newline-delimited
//     JSON objects with a small fixed key set; the per-kind meaning of the
//     generic fields is documented on Kind.
//
// The line format is:
//
//	{"t":<ns>,"ev":"<kind>","dev":<id>,"page":<p>,"pages":<n>,"aux":<a>,"aux2":<b>}
//
// plus an optional trailing `,"note":"<label>"` used by run separators.
// Encoding is hand-rolled with strconv so a steady emit stream allocates
// nothing after the buffer warms up.
package obs

import (
	"bufio"
	"io"
	"strconv"
	"unicode/utf8"

	"gcsteering/internal/sim"
)

// Kind labels one traced event. The generic Event fields carry per-kind
// payloads as documented on each constant.
type Kind uint8

const (
	// KRunStart separates runs in a multi-run trace file. note = run label.
	KRunStart Kind = iota
	// KGCStart is a fresh garbage-collection episode. dev = device,
	// pages = pages the plan moves, aux = planned episode end (ns),
	// aux2 = 1 when the episode was forced (GGC), 0 when natural.
	KGCStart
	// KGCExtend is new collection work added to a running episode (a write
	// drained the free pool again mid-episode). Fields as KGCStart.
	KGCExtend
	// KGCEnd is the end of an episode, after all extensions. dev = device.
	KGCEnd
	// KSubOp is one disk-level operation fanned out by the RAID engine.
	// dev = member disk, page/pages = extent, aux = raid.OpKind,
	// aux2 = stripe.
	KSubOp
	// KDegradedRead is a read served by reconstruction because its home
	// disk is failed or errored. dev = unreachable disk, page/pages =
	// extent.
	KDegradedRead
	// KURE is a latent sector error surfaced by a host read. dev = disk,
	// page/pages = extent, aux = 1 when repaired from redundancy, 0 when
	// the error was data loss.
	KURE
	// KRedirectRead is a read page served by the staging space. dev = home
	// disk, page = home page, aux = staging device, aux2 = 1 when the home
	// disk was collecting.
	KRedirectRead
	// KRedirectWrite is a write page absorbed by the staging space. Fields
	// as KRedirectRead.
	KRedirectWrite
	// KMigrate is a popular read page proactively copied to staging.
	// dev = home disk, page = home page, aux = staging device.
	KMigrate
	// KAllocFallback is a steered write that fell back to its home disk
	// because the staging allocator had no suitable slot. dev = home disk,
	// page = home page, aux = free write slots at the time.
	KAllocFallback
	// KAllocGated is a steered write that skipped allocation entirely
	// because the rebuild-headroom gate was closed. Fields as
	// KAllocFallback.
	KAllocGated
	// KReclaim is one reclaim write-back run. dev = home disk,
	// page/pages = merged run, aux = free write slots after scheduling.
	KReclaim
	// KDiskFail is a whole-device failure. dev = disk, aux = 1 when the
	// failure exceeded the layout's tolerance (array lost).
	KDiskFail
	// KDiskRepair marks a failed slot repaired after rebuild. dev = disk.
	KDiskRepair
	// KRebuildStart begins a reconstruction. dev = failed disk,
	// aux = total stripes to rebuild.
	KRebuildStart
	// KRebuildUnit is one rebuilt unit. dev = failed disk, page/pages =
	// unit extent, aux = units rebuilt so far, aux2 = total stripes.
	KRebuildUnit
	// KRebuildDone completes a reconstruction. dev = failed disk,
	// aux = rebuild duration (ns).
	KRebuildDone
	// KArrival is a user request entering the array. page/pages = logical
	// extent, aux = 1 for writes, aux2 = request sequence number.
	KArrival
	// KComplete is a user request finishing. aux = response time (ns),
	// aux2 = request sequence number.
	KComplete
	// KChecksumError is a read whose end-to-end checksum verification
	// failed (silent corruption detected). dev = corrupt member,
	// page/pages = disk extent, aux = 1 if served from redundancy.
	KChecksumError
	// KHedgedRead is a read raced against a parity reconstruction because
	// its home disk was busy. dev = home disk, page/pages = disk extent,
	// aux = 1 home mid-GC, 2 home fail-slow, 3 home quarantined.
	KHedgedRead
	// KHedgeWin settles a hedged read. dev = home disk, aux = 1 when the
	// reconstruction leg won, 0 when the direct read did, aux2 = elapsed
	// time (ns) from issue to first completion.
	KHedgeWin
	// KScrubStart begins one patrol scrub pass. aux = pass number (from
	// 0), aux2 = stripes to walk.
	KScrubStart
	// KScrubRepair is a stripe unit rewritten in place from redundancy.
	// dev = repaired member, page/pages = disk extent, aux = latent pages
	// cleared, aux2 = corrupt pages cleared.
	KScrubRepair
	// KScrubBusy is a scrub stripe deferred because a member is mid-GC.
	// dev = collecting member, aux = retry number, aux2 = backoff (ns).
	KScrubBusy
	// KScrubYield is a scrub stripe deferred to foreground load. dev = the
	// most backlogged member, aux2 = its channel backlog (ns).
	KScrubYield
	// KScrubDone completes one patrol pass. aux = units repaired so far,
	// aux2 = pass duration (ns).
	KScrubDone
	// KQuarantine is a device circuit breaker opening: the health monitor
	// judged the member fail-slow and steering now avoids it. dev = device,
	// aux = EWMA per-page latency (ns), aux2 = consecutive re-opens so far.
	KQuarantine
	// KHealthProbe is a half-open breaker judging one probe observation.
	// dev = device, aux = observed per-page latency (ns), aux2 = 1 when the
	// probe was clean (breaker closes), 0 when still slow (re-opens).
	KHealthProbe
	// KReinstate is a breaker closing after a clean probe. dev = device,
	// aux = total quarantined time this episode (ns).
	KReinstate
	// KDeadlineExceeded is a user request cancelled at its deadline before
	// completion. page/pages = logical extent, aux = deadline (ns),
	// aux2 = request sequence number.
	KDeadlineExceeded
	// KRetry is a transiently-failed read sub-op scheduled for another
	// attempt. dev = disk, page/pages = extent, aux = attempt number (from
	// 1), aux2 = backoff until the retry (ns).
	KRetry
	// KRetryExhausted is a read sub-op giving up after its retry budget.
	// dev = disk, page/pages = extent, aux = attempts made.
	KRetryExhausted
	// KReject is a user request refused by admission control. page/pages =
	// logical extent, aux = in-flight requests at the time, aux2 = request
	// sequence number.
	KReject
	// KShed is background work paused under queue pressure. dev = home disk
	// (-1 for scrub), aux = 1 hot-read migration skipped, 2 scrub stripe
	// deferred.
	KShed
	// KClusterPlace is a request routed to its primary array by the cluster
	// tier. dev = array index, aux = tenant index, aux2 = request sequence.
	KClusterPlace
	// KClusterRedirect is a read diverted from a busy primary to its
	// replica array. dev = replica array, aux = primary array, aux2 =
	// request sequence.
	KClusterRedirect
	// KClusterShed is a request dropped by a tenant's admission budget.
	// aux = tenant index, aux2 = request sequence.
	KClusterShed
	// KClusterReplicate is a write's synchronous replica leg enqueued on
	// the replica array. dev = replica array, aux = primary array,
	// aux2 = request sequence.
	KClusterReplicate
	// KClusterArrayDown is a whole-array crash at the routing tier.
	// dev = array, aux = 1 when the crash is permanent, 0 when timed.
	KClusterArrayDown
	// KClusterFailover is the Directory repinning a crashed array's
	// volumes to their replicas. dev = crashed array, aux = volumes
	// repinned, aux2 = detection delay (ns) since the crash.
	KClusterFailover
	// KClusterArrayUp is a crashed array recovering. dev = array.
	KClusterArrayUp
	// KClusterCopyStart begins a background copy job (re-replication or
	// failback). dev = destination array, aux = source array,
	// aux2 = bytes to copy. note = volume key.
	KClusterCopyStart
	// KClusterCutover flips a volume's placement after its copy job
	// drains, or at once when a clean volume fails back. dev = destination
	// array, aux = source array, aux2 = 1. note = volume key.
	KClusterCutover
	// KClusterFailedReq is a request failed because its serving array is
	// down. dev = down array, aux = tenant index, aux2 = request sequence.
	KClusterFailedReq
	// KClusterDataLoss is a read with no live up-to-date copy — the
	// cluster lost data it had acknowledged. dev = down array,
	// aux = tenant index, aux2 = request sequence.
	KClusterDataLoss
	// KPowerLoss is a whole-array power cut: every in-flight program and
	// queued sub-op is lost. aux = dirty (journal-open) stripes at the cut,
	// aux2 = user requests in flight (lost, never acknowledged).
	KPowerLoss
	// KTornWrite is one page program interrupted mid-flight by a power
	// loss: the page persists garbage that fails its CRC32-C on read.
	// dev = device, page = device page, aux = stripe.
	KTornWrite
	// KJournalMark is a stripe marked dirty in the intent journal before
	// its write fan-out. aux = stripe, aux2 = phase-2 legs registered.
	KJournalMark
	// KJournalClear is a stripe's intent retired at its write barrier.
	// aux = stripe.
	KJournalClear
	// KResyncStripe is one stripe checked by the post-restart resync
	// walker. aux = stripe, aux2 = 1 when it was found inconsistent and
	// repaired, 0 when clean.
	KResyncStripe
	// KResyncDone completes the post-restart resync. aux = stripes
	// walked, aux2 = stripes found inconsistent.
	KResyncDone

	kindCount
)

var kindNames = [kindCount]string{
	KRunStart:      "run-start",
	KGCStart:       "gc-start",
	KGCExtend:      "gc-extend",
	KGCEnd:         "gc-end",
	KSubOp:         "subop",
	KDegradedRead:  "degraded-read",
	KURE:           "ure",
	KRedirectRead:  "redirect-read",
	KRedirectWrite: "redirect-write",
	KMigrate:       "migrate",
	KAllocFallback: "alloc-fallback",
	KAllocGated:    "alloc-gated",
	KReclaim:       "reclaim",
	KDiskFail:      "disk-fail",
	KDiskRepair:    "disk-repair",
	KRebuildStart:  "rebuild-start",
	KRebuildUnit:   "rebuild-unit",
	KRebuildDone:   "rebuild-done",
	KArrival:       "arrival",
	KComplete:      "complete",
	KChecksumError: "checksum-error",
	KHedgedRead:    "hedged-read",
	KHedgeWin:      "hedge-win",
	KScrubStart:    "scrub-start",
	KScrubRepair:   "scrub-repair",
	KScrubBusy:     "scrub-busy",
	KScrubYield:    "scrub-yield",
	KScrubDone:     "scrub-done",

	KQuarantine:       "quarantine",
	KHealthProbe:      "health-probe",
	KReinstate:        "reinstate",
	KDeadlineExceeded: "deadline-exceeded",
	KRetry:            "retry",
	KRetryExhausted:   "retry-exhausted",
	KReject:           "reject",
	KShed:             "shed",
	KClusterPlace:     "cluster-place",
	KClusterRedirect:  "cluster-redirect",
	KClusterShed:      "cluster-shed",
	KClusterReplicate: "cluster-replicate",
	KClusterArrayDown: "cluster-array-down",
	KClusterFailover:  "cluster-failover",
	KClusterArrayUp:   "cluster-array-up",
	KClusterCopyStart: "cluster-copy-start",
	KClusterCutover:   "cluster-cutover",
	KClusterFailedReq: "cluster-failed",
	KClusterDataLoss:  "cluster-data-loss",
	KPowerLoss:        "power-loss",
	KTornWrite:        "torn-write",
	KJournalMark:      "journal-mark",
	KJournalClear:     "journal-clear",
	KResyncStripe:     "resync-stripe",
	KResyncDone:       "resync-done",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one traced occurrence. The zero value of every field is valid;
// use -1 for "no device"/"no page" so genuine zeros stay distinguishable.
type Event struct {
	Kind  Kind
	Dev   int32 // device/disk id, -1 when not applicable
	Page  int64 // first page of the extent, -1 when not applicable
	Pages int32 // extent length in pages, 0 when not applicable
	Aux   int64 // kind-specific, see Kind docs
	Aux2  int64 // kind-specific, see Kind docs
	Note  string
}

// Tracer serializes events to a writer as JSON lines. A nil *Tracer is the
// disabled tracer; all methods are nil-safe. Tracer is not safe for
// concurrent use: it belongs to exactly one simulation engine.
type Tracer struct {
	bw     *bufio.Writer
	buf    []byte
	events int64
	err    error
}

// New returns a tracer writing to w. Call Flush before reading the output.
func New(w io.Writer) *Tracer {
	return &Tracer{bw: bufio.NewWriterSize(w, 64<<10), buf: make([]byte, 0, 256)}
}

// Enabled reports whether emits reach a sink. Emit sites use it to skip
// computing event fields when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Events returns how many events have been emitted.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	return t.events
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// Emit appends one event. No-op on a nil tracer or after a write error.
func (t *Tracer) Emit(now sim.Time, e Event) {
	if t == nil || t.err != nil {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(now), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","dev":`...)
	b = strconv.AppendInt(b, int64(e.Dev), 10)
	b = append(b, `,"page":`...)
	b = strconv.AppendInt(b, e.Page, 10)
	b = append(b, `,"pages":`...)
	b = strconv.AppendInt(b, int64(e.Pages), 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, e.Aux, 10)
	b = append(b, `,"aux2":`...)
	b = strconv.AppendInt(b, e.Aux2, 10)
	if e.Note != "" {
		b = append(b, `,"note":`...)
		b = appendJSONString(b, e.Note)
	}
	b = append(b, '}', '\n')
	t.buf = b
	if _, err := t.bw.Write(b); err != nil {
		t.err = err
		return
	}
	t.events++
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a double-quoted JSON string. It exists
// because strconv.AppendQuote writes Go syntax (`\x00`, `\U0001f600`),
// which is not legal JSON: control bytes become \u00XX escapes and invalid
// UTF-8 sequences the Unicode replacement rune, exactly as encoding/json
// does, while the printable ASCII fast path stays a plain append.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf {
			if c == '"' || c == '\\' {
				b = append(b, '\\')
			}
			b = append(b, c)
			i++
			continue
		}
		if c < 0x20 {
			switch c {
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = utf8.AppendRune(b, utf8.RuneError)
		} else {
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}

// RunStart emits a run separator with the given label.
func (t *Tracer) RunStart(now sim.Time, label string) {
	t.Emit(now, Event{Kind: KRunStart, Dev: -1, Page: -1, Note: label})
}

// Flush drains the internal buffer to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
