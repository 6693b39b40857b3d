package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages CPU samples are charged to, in output order.
// "other" holds the repository's remaining packages (trace, fault, scrub,
// health, ...); "runtime_bg" holds samples with no repository frame at all,
// such as the garbage collector's background workers.
var cpuLayers = []string{"gcsteering", "sim", "flash", "ssd", "sched", "raid",
	"core", "metrics", "obs", "workload", "harness", "cluster", "rebuild",
	"other", "runtime_bg"}

// cpuShares decodes a runtime/pprof CPU profile (gzip-compressed
// profile.proto) and charges each sample to the innermost frame that
// belongs to the gcsteering module, so allocation and map work count
// against the layer that called them. It returns each layer's share of the
// samples and the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		counts[p.layerOf(s.locs)] += n
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name index
	strs    []string
}

// layerOf returns the layer of the innermost gcsteering frame of a stack
// (locations are leaf first; a location's lines list inlined calls
// innermost first).
func (p *profile) layerOf(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locs[id] {
			idx := p.funcs[fn]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			if l, ok := layerOfFunc(p.strs[idx]); ok {
				return l
			}
		}
	}
	return "runtime_bg"
}

// layerOfFunc maps a function name such as
// "gcsteering/internal/sim.(*Engine).Step" to its layer.
func layerOfFunc(name string) (string, bool) {
	if strings.HasPrefix(name, "gcsteering.") {
		return "gcsteering", true
	}
	rest, ok := strings.CutPrefix(name, "gcsteering/internal/")
	if !ok {
		if strings.HasPrefix(name, "gcsteering/") {
			return "other", true
		}
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range cpuLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

// Protocol buffer wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireLen    = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf")

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// next reads a field key and, for length-delimited fields, the payload.
func (r *pbReader) next() (field int, wire int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		val, err = r.varint()
	case wireI64, wireI32:
		n := 8
		if wire == wireI32 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[n:]
	case wireLen:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, val, data, err
}

// appendUints decodes a repeated integer field in either packed or
// unpacked form.
func appendUints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fns, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			p.locs[id] = fns
		case 5: // Function
			id, name, err := parseFunction(data)
			if err != nil {
				return nil, err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, val, data, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1: // location_id
			s.locs, err = appendUints(s.locs, wire, val, data)
		case 2: // value
			var vs []uint64
			vs, err = appendUints(nil, wire, val, data)
			for _, v := range vs {
				s.values = append(s.values, int64(v))
			}
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, val, data, err := r.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1: // id
			id = val
		case 4: // Line
			lr := pbReader{data}
			for len(lr.b) > 0 {
				f, _, v, _, err := lr.next()
				if err != nil {
					return 0, nil, err
				}
				if f == 1 { // function_id
					fns = append(fns, v)
				}
			}
		}
	}
	return id, fns, nil
}

func parseFunction(b []byte) (uint64, int64, error) {
	var id uint64
	name := int64(-1)
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, val, _, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1: // id
			id = val
		case 2: // name (string table index)
			name = int64(val)
		}
	}
	return id, name, nil
}
