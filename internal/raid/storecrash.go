package raid

import "fmt"

// Leg persistence states of a power-interrupted stripe write: each
// affected disk's program either never started, completed, or tore
// mid-flight leaving checksum-failing garbage.
const (
	LegOld  = iota // program never started: old contents survive
	LegNew         // program completed: new contents persisted
	LegTorn        // program interrupted: CRC-failing garbage persisted
)

// WriteTorn applies a write that a power cut interrupted mid-fan-out:
// state(disk) decides each affected leg's fate (LegOld/LegNew/LegTorn).
// Parity legs are covered too — the parity disk of each touched stripe is
// consulted like any other leg, which is exactly the write hole: data and
// parity can persist independently. It returns the touched stripes in
// ascending order — the entries an intent journal would hold open for this
// write.
func (s *Store) WriteTorn(page int, data []byte, state func(disk int) int) ([]int, error) {
	if len(data) == 0 || len(data)%s.pageSize != 0 {
		return nil, fmt.Errorf("raid: torn write length %d not a positive page multiple", len(data))
	}
	pages := len(data) / s.pageSize
	if page < 0 || page+pages > s.lay.LogicalPages() {
		return nil, fmt.Errorf("raid: torn write [%d,%d) outside array", page, page+pages)
	}
	exts, err := s.lay.SplitExtent(page, pages)
	if err != nil {
		return nil, err
	}
	var stripes []int
	off, i := 0, 0
	for i < len(exts) {
		j := i
		for j < len(exts) && exts[j].Stripe == exts[i].Stripe {
			j++
		}
		st := exts[i].Stripe
		stripes = append(stripes, st)
		units, err := s.dataUnits(st)
		if err != nil {
			return nil, err
		}
		// Build the would-be post-write stripe in scratch buffers (units
		// alias disk storage for surviving disks, so overlaying in place
		// would persist prematurely).
		n := s.lay.UnitPages * s.pageSize
		next := make([][]byte, len(units))
		for u := range units {
			next[u] = append(make([]byte, 0, n), units[u]...)
		}
		for _, e := range exts[i:j] {
			nb := e.Pages * s.pageSize
			uOff := (e.Page - s.lay.UnitPage(st)) * s.pageSize
			copy(next[e.DataIdx][uOff:uOff+nb], data[off:off+nb])
			off += nb
		}
		// Each data leg persists, keeps its old bytes, or tears.
		for _, e := range exts[i:j] {
			if !s.alive(e.Disk) {
				continue
			}
			nb := e.Pages * s.pageSize
			uOff := (e.Page - s.lay.UnitPage(st)) * s.pageSize
			dst := s.disks[e.Disk][e.Page*s.pageSize : e.Page*s.pageSize+nb]
			switch state(e.Disk) {
			case LegNew:
				copy(dst, next[e.DataIdx][uOff:uOff+nb])
				s.setSums(e.Disk, e.Page, e.Pages)
			case LegTorn:
				tear(dst)
			}
		}
		// Parity legs: encode what full persistence would have stored, then
		// apply the same fate choice.
		s.tornParity(st, next, state)
		i = j
	}
	return stripes, nil
}

// tornParity persists, skips, or tears stripe st's parity units, given the
// fully-overlaid data units the interrupted write was encoding.
func (s *Store) tornParity(st int, units [][]byte, state func(disk int) int) {
	n := s.lay.UnitPages * s.pageSize
	buf := make([]byte, n)
	apply := func(d int, encode func([][]byte, []byte)) {
		if !s.alive(d) {
			return
		}
		dst := s.unit(d, st)
		switch state(d) {
		case LegNew:
			encode(units, buf)
			copy(dst, buf)
			s.setSums(d, s.lay.UnitPage(st), s.lay.UnitPages)
		case LegTorn:
			tear(dst)
		}
	}
	apply(s.lay.ParityDisk(st), EncodeP)
	if s.lay.Level == RAID6 {
		apply(s.lay.QDisk(st), EncodeQ)
	}
}

// tear overwrites buf with garbage WITHOUT updating stored checksums — the
// persisted residue of a program the power cut interrupted. The pattern is
// deterministic so fuzz failures replay exactly.
func tear(buf []byte) {
	for i := range buf {
		buf[i] = byte(i)*167 + 0xC7
	}
}

// ResyncStripe restores stripe st to internal consistency after an
// interrupted write, the byte-accurate model of the mount-time resync:
// checksum-failing data pages are zeroed (their contents are indeterminate
// — the write hole the intent journal bounds to marked stripes), and
// parity is recomputed from the resulting data units. It is idempotent and
// harmless on a consistent stripe, and afterwards the stripe reconstructs
// correctly through any erasure the level tolerates.
func (s *Store) ResyncStripe(st int) error {
	if st < 0 || st >= s.lay.Stripes() {
		return fmt.Errorf("raid: no stripe %d", st)
	}
	base := s.lay.UnitPage(st)
	for idx := 0; idx < s.lay.DataDisks(); idx++ {
		d := s.lay.DataDisk(st, idx)
		if !s.alive(d) {
			continue
		}
		for p := base; p < base+s.lay.UnitPages; p++ {
			if s.pageSum(d, p) == s.sums[d][p] {
				continue
			}
			zero(s.disks[d][p*s.pageSize : (p+1)*s.pageSize])
			s.setSums(d, p, 1)
		}
	}
	units, err := s.dataUnits(st)
	if err != nil {
		return err
	}
	s.writeParity(st, units)
	return nil
}

func zero(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
}
