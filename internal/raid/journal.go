package raid

import "gcsteering/internal/sim"

// IntentLog is the array's write-ahead dirty-stripe intent journal — the
// mechanism that closes the RAID write hole. Every RAID5/6 stripe write
// marks its stripe dirty *before* the RMW/reconstruct-write fan-out and
// clears the mark at the stripe's completion barrier, so a power cut
// between the data leg and the parity leg leaves the stripe's mark in the
// persisted log: restart knows exactly which stripes may be torn and
// resyncs only those.
//
// The mark itself is modeled as durable at the instant it is taken (NVRAM
// or a metadata write piggybacked on the fan-out): what the simulation
// measures is the recovery-scope difference the journal buys, not the
// marginal cost of the mark write. A nil *IntentLog is the disabled
// journal: the write path pays one nil check and the traces stay
// byte-identical to a journal-free build.
type IntentLog struct {
	// Journaled marks full journal semantics: mark/clear events are traced
	// and the dirty list is handed to recovery. A log with Journaled false
	// still records intents — crash runs need the ground truth to place
	// torn pages — but recovery must pretend it does not exist (the
	// journal-off window-of-vulnerability mode).
	//gcsvet:inert
	Journaled bool

	open []*intent // in mark order; completed entries removed
}

// intentLeg is one phase-2 write leg registered under an intent.
type intentLeg struct {
	op   SubOp
	done bool
	// fire is the leg's completion: it flips done, so a power cut can tell
	// persisted legs from pending ones, and arrives at the intent's fan.
	fire func(now sim.Time)
}

// intent is one in-flight stripe write's journal entry. Concurrent writes
// to the same stripe each hold their own entry (a refcounted mark), so the
// stripe stays dirty until the last one clears.
type intent struct {
	stripe int
	issued bool // phase 2 has begun: legs may be on the flash
	legs   []intentLeg
	fan    func(now sim.Time) // the stripe write's phase-2 fan-in
}

// mark opens a journal entry for stripe st ahead of its write fan-out.
//
// gcsvet: the intent journal is an opt-in crash-consistency feature
// (reached only behind a.Intents != nil), so its per-write bookkeeping
// is fenced off from hotalloc with //gcsvet:cold — the default config's
// hot path never gets here, which is what the bench gate measures.
//
//gcsvet:cold
func (l *IntentLog) mark(st int) *intent {
	it := &intent{stripe: st}
	l.open = append(l.open, it)
	return it
}

// register records the phase-2 legs the entry covers (copied: the sub-op
// list is recycled with its stripe-write record).
//
// gcsvet: opt-in journal bookkeeping, cold for the same reason as mark.
//
//gcsvet:cold
func (l *IntentLog) register(it *intent, phase2 []SubOp) {
	it.legs = make([]intentLeg, len(phase2))
	for i, op := range phase2 {
		it.legs[i] = intentLeg{op: op, fire: func(t sim.Time) {
			it.legs[i].done = true
			it.fan(t)
		}}
	}
}

// clear retires the entry at the stripe's completion barrier.
func (l *IntentLog) clear(it *intent) {
	for i, o := range l.open {
		if o == it {
			l.open = append(l.open[:i], l.open[i+1:]...)
			break
		}
	}
}

// StripeIntent is one open journal entry harvested at a power cut.
type StripeIntent struct {
	Stripe int
	// Issued marks entries whose phase-2 legs had begun: the stripe may be
	// physically torn. An unissued entry (cut during the read phase) left
	// the old stripe intact.
	Issued bool
	// Legs and LegsDone count the registered write legs and how many had
	// completed by the cut.
	Legs, LegsDone int
	// Pending are the legs that had NOT completed: their extents hold old
	// data (not yet started) or garbage (torn mid-program).
	Pending []SubOp
}

// OpenIntents snapshots the journal's open entries — the dirty-stripe list
// a restart replays. Entries appear in mark order. Nil journal → nil.
func (a *Array) OpenIntents() []StripeIntent {
	if a.Intents == nil {
		return nil
	}
	out := make([]StripeIntent, 0, len(a.Intents.open))
	for _, it := range a.Intents.open {
		si := StripeIntent{Stripe: it.stripe, Issued: it.issued, Legs: len(it.legs)}
		for _, leg := range it.legs {
			if leg.done {
				si.LegsDone++
			} else {
				si.Pending = append(si.Pending, leg.op)
			}
		}
		out = append(out, si)
	}
	return out
}
