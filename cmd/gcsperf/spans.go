package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the ID of the span that was open when this one
// began (0 for none), so a layer's self time is its duration minus the
// time its child spans cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps every span of a run in memory; -trace-dir writes them out
// when the run ends. The benchmark is single-threaded around its calls, so
// spans nest as a stack.
type spanLog struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, rep int) int {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Workload: l.workload, Rep: rep, StartNs: time.Since(l.t0).Nanoseconds()})
	l.open = append(l.open, id)
	return id
}

// end closes span id and any span opened inside it that is still open.
func (l *spanLog) end(id int) {
	now := time.Since(l.t0).Nanoseconds()
	for n := len(l.open); n > 0; n = len(l.open) {
		top := l.open[n-1]
		l.open = l.open[:n-1]
		l.spans[top-1].EndNs = now
		if top == id {
			return
		}
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
