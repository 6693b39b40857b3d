package raid

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// crcTab is the Castagnoli polynomial used for the store's per-page
// end-to-end checksums (the same choice as btrfs and iSCSI).
var crcTab = crc32.MakeTable(crc32.Castagnoli)

// Store is a byte-accurate, untimed RAID array: it really stores data
// across per-disk buffers using the Layout's placement and the parity
// codecs. It exists to prove the layout and codec math end to end — every
// degraded read and every reconstruction consults only surviving disks —
// and doubles as the reference model for the simulator's addressing.
//
// Every page carries a CRC32-C maintained on write and verified on read:
// silent corruption (Corrupt, or any stray write) is detected and repaired
// in place from redundancy, never silently returned.
type Store struct {
	lay      Layout
	pageSize int
	disks    [][]byte
	sums     [][]uint32 // per-disk per-page CRC32-C of page contents
	failed   []int      // failed disk ids (RAID6 tolerates two)

	readRepairs int64 // pages repaired in place by checksum-verifying reads
}

// NewStore creates a zero-filled store.
func NewStore(lay Layout, pageSize int) (*Store, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("raid: page size %d must be positive", pageSize)
	}
	s := &Store{lay: lay, pageSize: pageSize}
	s.disks = make([][]byte, lay.Disks)
	s.sums = make([][]uint32, lay.Disks)
	zeroSum := crc32.Checksum(make([]byte, pageSize), crcTab)
	for d := range s.disks {
		s.disks[d] = make([]byte, lay.DiskPages*pageSize)
		s.sums[d] = make([]uint32, lay.DiskPages)
		for p := range s.sums[d] {
			s.sums[d][p] = zeroSum
		}
	}
	return s, nil
}

// pageSum computes the current checksum of disk d's page p contents.
func (s *Store) pageSum(d, p int) uint32 {
	return crc32.Checksum(s.disks[d][p*s.pageSize:(p+1)*s.pageSize], crcTab)
}

// setSums re-records the stored checksums of pages [p, p+n) on disk d.
func (s *Store) setSums(d, p, n int) {
	for i := p; i < p+n; i++ {
		s.sums[d][i] = s.pageSum(d, i)
	}
}

// ReadRepairs reports how many pages checksum-verifying reads have
// repaired in place so far.
func (s *Store) ReadRepairs() int64 { return s.readRepairs }

// Corrupt flips bytes of disk d's page p without updating the stored
// checksum — injected silent corruption for exercising detection and
// repair. It fails on a failed disk or an out-of-range page.
func (s *Store) Corrupt(d, p int) error {
	if d < 0 || d >= s.lay.Disks || p < 0 || p >= s.lay.DiskPages {
		return fmt.Errorf("raid: corrupt target disk %d page %d out of range", d, p)
	}
	if !s.alive(d) {
		return fmt.Errorf("raid: disk %d already failed", d)
	}
	s.disks[d][p*s.pageSize] ^= 0xFF
	return nil
}

// Layout returns the store's layout.
func (s *Store) Layout() Layout { return s.lay }

// Failed returns the failed disk ids (empty when healthy).
func (s *Store) Failed() []int { return append([]int(nil), s.failed...) }

// maxFailures is the fault tolerance of the layout: one per parity unit.
func (s *Store) maxFailures() int { return s.lay.Disks - s.lay.DataDisks() }

// FailDisk simulates the total loss of disk d (controller failure, per the
// Samsung report cited in §II-B): its contents become unreadable. RAID6
// tolerates a second failure (§III-D's second-failure scenario).
func (s *Store) FailDisk(d int) error {
	if d < 0 || d >= s.lay.Disks {
		return fmt.Errorf("raid: no disk %d", d)
	}
	if !s.alive(d) {
		return fmt.Errorf("raid: disk %d already failed", d)
	}
	if len(s.failed) >= s.maxFailures() {
		return fmt.Errorf("raid: %v cannot survive %d failures", s.lay.Level, len(s.failed)+1)
	}
	s.failed = append(s.failed, d)
	for i := range s.disks[d] {
		s.disks[d][i] = 0xDE // poison so accidental reads are caught
	}
	return nil
}

func (s *Store) alive(d int) bool {
	for _, f := range s.failed {
		if f == d {
			return false
		}
	}
	return true
}

// unit returns the byte slice of stripe st's unit on disk d.
func (s *Store) unit(d, st int) []byte {
	off := st * s.lay.UnitPages * s.pageSize
	return s.disks[d][off : off+s.lay.UnitPages*s.pageSize]
}

// dataUnits materializes all data units of stripe st, reconstructing any
// units lost to failed disks from parity and survivors (up to two for
// RAID6). The returned slices alias disk storage for surviving units;
// reconstructed units are fresh buffers.
func (s *Store) dataUnits(st int) ([][]byte, error) {
	nd := s.lay.DataDisks()
	units := make([][]byte, nd)
	var missing []int
	for idx := 0; idx < nd; idx++ {
		d := s.lay.DataDisk(st, idx)
		if s.alive(d) {
			units[idx] = s.unit(d, st)
		} else {
			missing = append(missing, idx)
		}
	}
	switch len(missing) {
	case 0:
		return units, nil
	case 1:
		out := make([]byte, s.lay.UnitPages*s.pageSize)
		if err := s.reconstructDataUnit(st, missing[0], units, out); err != nil {
			return nil, err
		}
		units[missing[0]] = out
		return units, nil
	case 2:
		if s.lay.Level != RAID6 {
			return nil, fmt.Errorf("raid: %v stripe %d lost two data units", s.lay.Level, st)
		}
		pd, qd := s.lay.ParityDisk(st), s.lay.QDisk(st)
		if !s.alive(pd) || !s.alive(qd) {
			return nil, fmt.Errorf("raid: stripe %d lost two data units and a parity", st)
		}
		surv := make(map[int][]byte)
		for i, u := range units {
			if u != nil {
				surv[i] = u
			}
		}
		n := s.lay.UnitPages * s.pageSize
		outA := make([]byte, n)
		outB := make([]byte, n)
		ReconstructTwoData(surv, s.unit(pd, st), s.unit(qd, st), missing[0], missing[1], outA, outB)
		units[missing[0]] = outA
		units[missing[1]] = outB
		return units, nil
	default:
		return nil, fmt.Errorf("raid: stripe %d lost %d data units", st, len(missing))
	}
}

// reconstructDataUnit recovers data unit missing of stripe st into out,
// using P when available, else Q (RAID6). units holds the surviving data
// units (nil at the missing index).
func (s *Store) reconstructDataUnit(st, missing int, units [][]byte, out []byte) error {
	pd := s.lay.ParityDisk(st)
	if s.alive(pd) {
		var surv [][]byte
		for i, u := range units {
			if i != missing && u != nil {
				surv = append(surv, u)
			}
		}
		ReconstructDataP(surv, s.unit(pd, st), out)
		return nil
	}
	if s.lay.Level != RAID6 {
		return fmt.Errorf("raid: stripe %d unrecoverable", st)
	}
	qd := s.lay.QDisk(st)
	if !s.alive(qd) {
		return fmt.Errorf("raid: stripe %d lost both parities and a data unit", st)
	}
	survMap := make(map[int][]byte)
	for i, u := range units {
		if i != missing && u != nil {
			survMap[i] = u
		}
	}
	ReconstructDataQ(survMap, s.unit(qd, st), missing, out)
	return nil
}

// writeParity recomputes and stores P (and Q) for stripe st from the full
// data unit set, re-recording their checksums. Parity on a failed disk is
// skipped.
func (s *Store) writeParity(st int, units [][]byte) {
	if pd := s.lay.ParityDisk(st); s.alive(pd) {
		EncodeP(units, s.unit(pd, st))
		s.setSums(pd, s.lay.UnitPage(st), s.lay.UnitPages)
	}
	if qd := s.lay.QDisk(st); qd >= 0 && s.alive(qd) {
		EncodeQ(units, s.unit(qd, st))
		s.setSums(qd, s.lay.UnitPage(st), s.lay.UnitPages)
	}
}

// Write stores data (len must be a multiple of the page size) at logical
// array page `page`. Degraded writes use reconstruct-write: the lost unit's
// old contents are recovered from survivors before parity is recomputed, so
// redundancy stays correct without ever reading the failed disk.
func (s *Store) Write(page int, data []byte) error {
	if len(data) == 0 || len(data)%s.pageSize != 0 {
		return fmt.Errorf("raid: write length %d not a positive page multiple", len(data))
	}
	pages := len(data) / s.pageSize
	if page < 0 || page+pages > s.lay.LogicalPages() {
		return fmt.Errorf("raid: write [%d,%d) outside array", page, page+pages)
	}
	exts, err := s.lay.SplitExtent(page, pages)
	if err != nil {
		return err
	}
	// Group extents by stripe, materialize full data units (recovering any
	// lost unit first), overlay the new bytes, then write back data and
	// freshly encoded parity.
	off := 0
	i := 0
	for i < len(exts) {
		j := i
		for j < len(exts) && exts[j].Stripe == exts[i].Stripe {
			j++
		}
		st := exts[i].Stripe
		units, err := s.dataUnits(st)
		if err != nil {
			return err
		}
		for _, e := range exts[i:j] {
			n := e.Pages * s.pageSize
			uOff := (e.Page - s.lay.UnitPage(st)) * s.pageSize
			copy(units[e.DataIdx][uOff:uOff+n], data[off:off+n])
			off += n
			if s.alive(e.Disk) {
				s.setSums(e.Disk, e.Page, e.Pages)
			}
		}
		// Persist data units that live on surviving disks. The unit slices
		// alias disk storage for surviving disks, so the overlay already
		// stored them; only parity needs encoding.
		s.writeParity(st, units)
		i = j
	}
	return nil
}

// Read returns pages logical pages starting at page, reconstructing any
// portion lost to a failed disk.
// Every page read is checksum-verified: detected corruption is repaired in
// place from redundancy, or reported as an error when none remains — never
// silently returned.
func (s *Store) Read(page, pages int) ([]byte, error) {
	if pages <= 0 || page < 0 || page+pages > s.lay.LogicalPages() {
		return nil, fmt.Errorf("raid: read [%d,%d) invalid", page, page+pages)
	}
	exts, err := s.lay.SplitExtent(page, pages)
	if err != nil {
		return nil, err
	}
	out := make([]byte, pages*s.pageSize)
	off := 0
	for _, e := range exts {
		n := e.Pages * s.pageSize
		if s.alive(e.Disk) {
			for pp := e.Page; pp < e.Page+e.Pages; pp++ {
				if s.pageSum(e.Disk, pp) == s.sums[e.Disk][pp] {
					continue
				}
				if !s.repairPage(e.Disk, pp) {
					return nil, fmt.Errorf("raid: unrecoverable corruption on disk %d page %d", e.Disk, pp)
				}
				s.readRepairs++
			}
			copy(out[off:], s.disks[e.Disk][e.Page*s.pageSize:e.Page*s.pageSize+n])
		} else {
			units, err := s.dataUnits(e.Stripe)
			if err != nil {
				return nil, err
			}
			uOff := (e.Page - s.lay.UnitPage(e.Stripe)) * s.pageSize
			copy(out[off:off+n], units[e.DataIdx][uOff:])
		}
		off += n
	}
	return out, nil
}

// reconstructExcluding rebuilds data unit idx of stripe st without reading
// it — from the stripe's other data units and parity — even when the
// source disk is alive but holds corrupt data. Failed disks count against
// the same redundancy budget: an error means the stripe cannot cover idx
// on top of its existing losses.
func (s *Store) reconstructExcluding(st, idx int) ([]byte, error) {
	nd := s.lay.DataDisks()
	units := make([][]byte, nd)
	var missing []int
	for i := 0; i < nd; i++ {
		d := s.lay.DataDisk(st, i)
		if i == idx || !s.alive(d) {
			missing = append(missing, i)
			continue
		}
		units[i] = s.unit(d, st)
	}
	n := s.lay.UnitPages * s.pageSize
	out := make([]byte, n)
	switch len(missing) {
	case 1:
		if err := s.reconstructDataUnit(st, idx, units, out); err != nil {
			return nil, err
		}
		return out, nil
	case 2:
		if s.lay.Level != RAID6 {
			return nil, fmt.Errorf("raid: %v stripe %d cannot cover unit %d on top of a failure", s.lay.Level, st, idx)
		}
		pd, qd := s.lay.ParityDisk(st), s.lay.QDisk(st)
		if !s.alive(pd) || !s.alive(qd) {
			return nil, fmt.Errorf("raid: stripe %d lacks both parities to cover unit %d", st, idx)
		}
		surv := make(map[int][]byte)
		for i, u := range units {
			if u != nil {
				surv[i] = u
			}
		}
		outB := make([]byte, n)
		ReconstructTwoData(surv, s.unit(pd, st), s.unit(qd, st), missing[0], missing[1], out, outB)
		if missing[0] == idx {
			return out, nil
		}
		return outB, nil
	default:
		return nil, fmt.Errorf("raid: stripe %d lost %d data units", st, len(missing))
	}
}

// repairPage rewrites disk d's page p from redundancy and re-records its
// checksum, reporting whether the repair was possible. The page may hold a
// data unit, P, or Q.
func (s *Store) repairPage(d, p int) bool {
	st := p / s.lay.UnitPages
	ps := s.pageSize
	dst := s.disks[d][p*ps : (p+1)*ps]
	uOff := (p - s.lay.UnitPage(st)) * ps
	switch {
	case d == s.lay.ParityDisk(st) || (s.lay.Level == RAID6 && d == s.lay.QDisk(st)):
		units, err := s.dataUnits(st)
		if err != nil {
			return false
		}
		buf := make([]byte, s.lay.UnitPages*ps)
		if d == s.lay.ParityDisk(st) {
			EncodeP(units, buf)
		} else {
			EncodeQ(units, buf)
		}
		copy(dst, buf[uOff:uOff+ps])
		s.setSums(d, p, 1)
		return true
	default:
		idx := s.lay.DataIndex(st, d)
		if idx < 0 {
			return false
		}
		unit, err := s.reconstructExcluding(st, idx)
		if err != nil {
			return false
		}
		copy(dst, unit[uOff:uOff+ps])
		s.setSums(d, p, 1)
		return true
	}
}

// ScrubPass walks every page of every alive disk, verifies its checksum,
// and repairs mismatches in place from redundancy — the byte-accurate
// model of one patrol scrub pass. It reports how many pages were repaired
// and how many were detected but unrepairable (redundancy exhausted).
func (s *Store) ScrubPass() (repaired, unrecoverable int) {
	for d := 0; d < s.lay.Disks; d++ {
		if !s.alive(d) {
			continue
		}
		for p := 0; p < s.lay.DiskPages; p++ {
			if s.pageSum(d, p) == s.sums[d][p] {
				continue
			}
			if s.repairPage(d, p) {
				repaired++
			} else {
				unrecoverable++
			}
		}
	}
	return repaired, unrecoverable
}

// Reconstruct rebuilds every failed disk's full contents (data and parity
// units) from the survivors onto replacements, returning the array to the
// healthy state. With two failures (RAID6) the disks are rebuilt one at a
// time, mirroring §III-D's second-failure procedure.
func (s *Store) Reconstruct() error {
	if len(s.failed) == 0 {
		return fmt.Errorf("raid: no failed disk")
	}
	for len(s.failed) > 0 {
		if err := s.reconstructOne(s.failed[0]); err != nil {
			return err
		}
		s.failed = s.failed[1:]
	}
	return nil
}

// reconstructOne rebuilds disk d while it is still marked failed.
func (s *Store) reconstructOne(d int) error {
	repl := make([]byte, s.lay.DiskPages*s.pageSize)
	for st := 0; st < s.lay.Stripes(); st++ {
		dst := repl[st*s.lay.UnitPages*s.pageSize : (st+1)*s.lay.UnitPages*s.pageSize]
		switch {
		case d == s.lay.ParityDisk(st):
			units, err := s.dataUnits(st)
			if err != nil {
				return err
			}
			EncodeP(units, dst)
		case s.lay.Level == RAID6 && d == s.lay.QDisk(st):
			units, err := s.dataUnits(st)
			if err != nil {
				return err
			}
			EncodeQ(units, dst)
		default:
			idx := s.lay.DataIndex(st, d)
			if idx < 0 {
				return fmt.Errorf("raid: disk %d has no role in stripe %d", d, st)
			}
			units, err := s.dataUnits(st)
			if err != nil {
				return err
			}
			copy(dst, units[idx])
		}
	}
	s.disks[d] = repl
	s.setSums(d, 0, s.lay.DiskPages)
	return nil
}

// CheckParity verifies every stripe's parity on a healthy array.
func (s *Store) CheckParity() error {
	if len(s.failed) > 0 {
		return fmt.Errorf("raid: cannot check parity while degraded")
	}
	n := s.lay.UnitPages * s.pageSize
	p := make([]byte, n)
	q := make([]byte, n)
	for st := 0; st < s.lay.Stripes(); st++ {
		units, err := s.dataUnits(st)
		if err != nil {
			return err
		}
		EncodeP(units, p)
		if !bytes.Equal(p, s.unit(s.lay.ParityDisk(st), st)) {
			return fmt.Errorf("raid: stripe %d P mismatch", st)
		}
		if s.lay.Level == RAID6 {
			EncodeQ(units, q)
			if !bytes.Equal(q, s.unit(s.lay.QDisk(st), st)) {
				return fmt.Errorf("raid: stripe %d Q mismatch", st)
			}
		}
	}
	return nil
}
