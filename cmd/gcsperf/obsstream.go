package main

import (
	"bytes"
	"fmt"
)

// obsCounter is the io.Writer the obs rep streams Config.Trace into. It
// parses each JSON line as it arrives and keeps only counts, so a traced
// replay costs no memory proportional to its event count.
//
// It rebuilds two things the Results do not carry: the sub-op mix by
// raid.OpKind, and which requests arrived while a member was collecting.
// Both follow from the emission order, which is the engine's order: a
// device is in GC at instant t exactly when the latest gc-start/gc-extend
// it emitted planned an end after t, which is the test ssd.Device.InGC and
// the facade's phase classification apply.
type obsCounter struct {
	events int64
	bytes  int64

	subops   [5]int64 // indexed by raid.OpKind
	subopsGC int64
	gcEnd    []int64 // per device: planned end of its current episode
	// arrivedInGC is indexed by request sequence number.
	arrivedInGC []bool
	arrivals    int64

	partial []byte
	err     error
}

// Write implements io.Writer. Lines may be split across calls.
func (c *obsCounter) Write(p []byte) (int, error) {
	n := len(p)
	c.bytes += int64(n)
	if len(c.partial) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			c.partial = append(c.partial, p...)
			return n, nil
		}
		c.partial = append(c.partial, p[:i]...)
		c.line(c.partial)
		c.partial = c.partial[:0]
		p = p[i+1:]
	}
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			c.partial = append(c.partial, p...)
			break
		}
		c.line(p[:i])
		p = p[i+1:]
	}
	return n, nil
}

// obsLine is the part of an event line the counter reads.
type obsLine struct {
	t, dev, aux, aux2 int64
	ev                []byte
}

// parseObsLine reads the fixed-order fields internal/obs writes:
// {"t":..,"ev":"..","dev":..,"page":..,"pages":..,"aux":..,"aux2":..}.
func parseObsLine(b []byte) (obsLine, bool) {
	var l obsLine
	var ok bool
	rest := b
	if l.t, rest, ok = intField(rest, `{"t":`); !ok {
		return l, false
	}
	if !bytes.HasPrefix(rest, []byte(`,"ev":"`)) {
		return l, false
	}
	rest = rest[len(`,"ev":"`):]
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return l, false
	}
	l.ev, rest = rest[:q], rest[q+1:]
	if l.dev, rest, ok = intField(rest, `,"dev":`); !ok {
		return l, false
	}
	if _, rest, ok = intField(rest, `,"page":`); !ok {
		return l, false
	}
	if _, rest, ok = intField(rest, `,"pages":`); !ok {
		return l, false
	}
	if l.aux, rest, ok = intField(rest, `,"aux":`); !ok {
		return l, false
	}
	l.aux2, _, ok = intField(rest, `,"aux2":`)
	return l, ok
}

// intField parses key followed by a decimal integer at the start of b.
func intField(b []byte, key string) (int64, []byte, bool) {
	if !bytes.HasPrefix(b, []byte(key)) {
		return 0, b, false
	}
	b = b[len(key):]
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	end := 0
	var v int64
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		v = v*10 + int64(b[end]-'0')
		end++
	}
	if end == 0 {
		return 0, b, false
	}
	if neg {
		v = -v
	}
	return v, b[end:], true
}

func (c *obsCounter) line(b []byte) {
	c.events++
	l, ok := parseObsLine(b)
	if !ok {
		if c.err == nil {
			c.err = fmt.Errorf("obs line %d does not parse: %.120s", c.events, b)
		}
		return
	}
	switch string(l.ev) {
	case "subop":
		if l.aux >= 0 && int(l.aux) < len(c.subops) {
			c.subops[l.aux]++
		}
		if c.inGC(l.dev, l.t) {
			c.subopsGC++
		}
	case "gc-start", "gc-extend":
		for int(l.dev) >= len(c.gcEnd) {
			c.gcEnd = append(c.gcEnd, 0)
		}
		if l.aux > c.gcEnd[l.dev] {
			c.gcEnd[l.dev] = l.aux
		}
	case "arrival":
		c.arrivals++
		for int(l.aux2) >= len(c.arrivedInGC) {
			c.arrivedInGC = append(c.arrivedInGC, false)
		}
		for dev := range c.gcEnd {
			if c.inGC(int64(dev), l.t) {
				c.arrivedInGC[l.aux2] = true
				break
			}
		}
	}
}

func (c *obsCounter) inGC(dev, t int64) bool {
	return dev >= 0 && int(dev) < len(c.gcEnd) && t < c.gcEnd[dev]
}

// subopTotal is the number of sub-ops the array issued.
func (c *obsCounter) subopTotal() int64 {
	var n int64
	for _, v := range c.subops {
		n += v
	}
	return n
}
