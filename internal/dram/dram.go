// Package dram provides the off-chip memory substrate: a word-addressed
// backing store holding the architectural value of every memory location,
// and a GDDR5-like timing model — per-channel bandwidth queueing over
// banked devices with open-row buffers (a row hit costs column access
// only; a row miss pays precharge + activate).
//
// The paper's simulator uses a cycle-accurate GDDR5 model; this model
// keeps the two effects the evaluation depends on — channel queueing
// under load and row-locality sensitivity — without modelling individual
// command buses. The substitution is documented in DESIGN.md.
package dram

import (
	"math/bits"
	"slices"

	"cohesion/internal/addr"
	"cohesion/internal/event"
	"cohesion/internal/stats"
)

// Geometry of the dense fine-grain-table segment.
const (
	tblWords = addr.TableBytes / addr.WordBytes
	tblLines = addr.TableBytes / addr.LineBytes
	tblLine0 = addr.Line(addr.TableBase >> addr.LineShift)
)

// Store holds the architectural contents of memory, one 32-bit word at a
// time, organized by cache line. Lines never written read as zero.
//
// The fine-grain region table segment [addr.TableBase, +TableBytes) is
// held densely instead of in the line map: Cohesion presets table words
// covering the whole incoherent heap at load time, which would swamp the
// map (and the address-ordered fingerprint walk) with tens of thousands
// of lines. The dense arrays are allocated lazily on the first
// table-range write, so SWcc/HWcc machines never pay for them. The two
// representations are observationally identical: Lines, ReadLine,
// LinesTouched, and Fingerprint present the merged image in address
// order, with a table line participating once any of its words has been
// written (even with zero), exactly as a map entry would.
type Store struct {
	lines map[addr.Line]*[addr.WordsPerLine]uint32

	tbl        []uint32 // table words, indexed by (addr-TableBase)/WordBytes
	tblWritten []uint64 // one bit per table line: line has been written

	// Per-block (64 lines = one tblWritten word) summaries feeding the
	// fingerprint fast path: a dirty bit set on every table write, and a
	// lazily recomputed "uniform" bit + pattern consulted by Fingerprint
	// (see fingerprint.go).
	tblDirty   []uint64
	tblUniform []uint64
	tblPattern []uint32
}

// NewStore returns an empty memory image.
func NewStore() *Store {
	return &Store{lines: make(map[addr.Line]*[addr.WordsPerLine]uint32)}
}

// inTable reports whether a falls in the dense table segment.
func inTable(a addr.Addr) bool {
	return a >= addr.TableBase && a-addr.TableBase < addr.TableBytes
}

// ensureTbl allocates the dense segment on first table-range write.
func (s *Store) ensureTbl() {
	if s.tbl == nil {
		s.tbl = make([]uint32, tblWords)
		s.tblWritten = make([]uint64, tblLines/64)
		nblocks := tblLines / blockLines
		s.tblDirty = make([]uint64, (nblocks+63)/64)
		s.tblUniform = make([]uint64, (nblocks+63)/64)
		s.tblPattern = make([]uint32, nblocks)
	}
}

// ReadWord returns the word containing address a.
func (s *Store) ReadWord(a addr.Addr) uint32 {
	if inTable(a) {
		if s.tbl == nil {
			return 0
		}
		return s.tbl[(a-addr.TableBase)>>addr.WordShift]
	}
	l := s.lines[addr.LineOf(a)]
	if l == nil {
		return 0
	}
	return l[addr.WordIndex(a)]
}

// WriteWord stores v into the word containing address a.
func (s *Store) WriteWord(a addr.Addr, v uint32) {
	if inTable(a) {
		s.ensureTbl()
		off := a - addr.TableBase
		s.tbl[off>>addr.WordShift] = v
		li := uint(off >> addr.LineShift)
		s.tblWritten[li/64] |= 1 << (li % 64)
		s.markTblDirty(li)
		return
	}
	line := addr.LineOf(a)
	l := s.lines[line]
	if l == nil {
		l = new([addr.WordsPerLine]uint32)
		s.lines[line] = l
	}
	l[addr.WordIndex(a)] = v
}

// ReadLine copies the full contents of a line.
func (s *Store) ReadLine(line addr.Line) [addr.WordsPerLine]uint32 {
	if base := line.Base(); inTable(base) {
		var out [addr.WordsPerLine]uint32
		if s.tbl != nil {
			w0 := (base - addr.TableBase) >> addr.WordShift
			copy(out[:], s.tbl[w0:w0+addr.WordsPerLine])
		}
		return out
	}
	if l := s.lines[line]; l != nil {
		return *l
	}
	return [addr.WordsPerLine]uint32{}
}

// MergeLine writes back the words of data selected by mask (bit i = word i),
// leaving other words untouched. This implements the paper's per-word
// dirty-bit merge that lets the L3 combine disjoint write sets from
// multiple SWcc writers.
func (s *Store) MergeLine(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
	if mask == 0 {
		return
	}
	if base := line.Base(); inTable(base) {
		s.ensureTbl()
		w0 := (base - addr.TableBase) >> addr.WordShift
		for w := 0; w < addr.WordsPerLine; w++ {
			if mask&(1<<w) != 0 {
				s.tbl[w0+addr.Addr(w)] = data[w]
			}
		}
		li := uint(line - tblLine0)
		s.tblWritten[li/64] |= 1 << (li % 64)
		s.markTblDirty(li)
		return
	}
	l := s.lines[line]
	if l == nil {
		l = new([addr.WordsPerLine]uint32)
		s.lines[line] = l
	}
	for w := 0; w < addr.WordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			l[w] = data[w]
		}
	}
}

// tblLinesTouched counts written table lines.
func (s *Store) tblLinesTouched() int {
	n := 0
	for _, w := range s.tblWritten {
		n += bits.OnesCount64(w)
	}
	return n
}

// LinesTouched reports how many distinct lines have ever been written.
func (s *Store) LinesTouched() int { return len(s.lines) + s.tblLinesTouched() }

// Lines returns every written line in address order.
func (s *Store) Lines() []addr.Line {
	lines := make([]addr.Line, 0, len(s.lines)+s.tblLinesTouched())
	for line := range s.lines {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	// The table segment is the top of the address space: every written
	// table line sorts after every map line.
	for wi, w := range s.tblWritten {
		for ; w != 0; w &= w - 1 {
			li := wi*64 + bits.TrailingZeros64(w)
			lines = append(lines, tblLine0+addr.Line(li))
		}
	}
	return lines
}

// fnv64Prime and fnv64Offset are the FNV-1a constants for the fingerprint.
const (
	fnv64Prime  = 1099511628211
	fnv64Offset = 14695981039346656037
)

// fnv64Prime4 is fnv64Prime^4 mod 2^64: mixing a zero byte is
// h = (h^0)*p = h*p, so a run of four zero bytes is one multiply.
var fnv64Prime4 = func() uint64 {
	p := uint64(fnv64Prime)
	return p * p * p * p
}()

// mixLine folds one line (its number, then its eight words) into the
// running FNV-1a state. The digest is defined byte by byte,
// little-endian, with both the line number and each word widened to
// eight bytes; the zero upper halves collapse into multiplies by
// fnv64Prime4, which is bit-identical to the byte loop and roughly
// halves the serial chain (the Cohesion table preset makes end-of-run
// fingerprints mix ~32K table lines, so this is hot).
func mixLine(h uint64, line addr.Line, words *[addr.WordsPerLine]uint32) uint64 {
	v := uint64(line)
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	if v == 0 { // always, in a 32-bit address space
		h *= fnv64Prime4
	} else {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
	}
	for _, w := range words {
		v = uint64(w)
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
		h *= fnv64Prime4 // bytes 4..7 of the widened word are zero
	}
	return h
}

// Fingerprint digests the full memory image (FNV-1a over lines in address
// order), independent of map iteration order: equal images yield equal
// fingerprints. Determinism tests use it to compare whole runs cheaply.
func (s *Store) Fingerprint() uint64 {
	lines := make([]addr.Line, 0, len(s.lines))
	for line := range s.lines {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	h := uint64(fnv64Offset)
	for _, line := range lines {
		h = mixLine(h, line, s.lines[line])
	}
	// Table lines sort after everything in the map (top of the address
	// space), so they are mixed last, in ascending order. A fully-written
	// uniform block (the overwhelmingly common case: the Cohesion preset
	// paints the table in solid runs) is folded in with one cached affine
	// transform instead of ~4600 dependent multiplies; ragged or
	// non-uniform blocks take the per-line path with the concrete running
	// state, so the result is bit-identical either way.
	var buf [addr.WordsPerLine]uint32
	for wi, w := range s.tblWritten {
		if w == 0 {
			continue
		}
		if w == ^uint64(0) {
			if pattern, ok := s.blockUniform(wi); ok {
				x := blockXformFor(wi, pattern)
				h = h*x.mult + x.add[h&0xff]
				continue
			}
		}
		for ; w != 0; w &= w - 1 {
			li := wi*64 + bits.TrailingZeros64(w)
			w0 := li * addr.WordsPerLine
			copy(buf[:], s.tbl[w0:w0+addr.WordsPerLine])
			h = mixLine(h, tblLine0+addr.Line(li), &buf)
		}
	}
	return h
}

// Device geometry: a 2 KB row (the paper's footnote strides the address
// space across controllers at DRAM-row granularity, addr[10..0] within a
// row) and sixteen banks per channel.
const (
	rowShift        = 11 // log2(2 KB row)
	BanksPerChannel = 16
)

// Controller models the DRAM channels' timing. Each channel is a FIFO
// resource (a line transfer occupies it for OccupancyCycles); each of its
// banks keeps one row open — a transfer to the open row completes after
// the row-hit latency, any other row pays the full access latency.
type Controller struct {
	q               *event.Queue
	run             *stats.Run
	missLatency     event.Cycle // precharge + activate + CAS
	hitLatency      event.Cycle // CAS only (open row)
	occupancy       event.Cycle
	banksPerChannel int // L3 banks per channel
	nextFree        []event.Cycle
	openRow         [][]uint64 // [channel][dramBank] -> open row id + 1 (0 = none)

	// RowHits/RowMisses report the row-buffer behaviour of the run.
	RowHits, RowMisses uint64
}

// NewController builds a timing model with the given channel count, the
// number of L3 banks feeding each channel, the row-miss access latency,
// and per-line channel occupancy (all in cycles). The row-hit latency is
// half the miss latency, floor 1.
func NewController(q *event.Queue, run *stats.Run, channels, l3Banks, latency, occupancy int) *Controller {
	if channels < 1 || l3Banks < channels || l3Banks%channels != 0 {
		panic("dram: bad channel/bank geometry")
	}
	hit := latency / 2
	if hit < 1 {
		hit = 1
	}
	c := &Controller{
		q:               q,
		run:             run,
		missLatency:     event.Cycle(latency),
		hitLatency:      event.Cycle(hit),
		occupancy:       event.Cycle(occupancy),
		banksPerChannel: l3Banks / channels,
		nextFree:        make([]event.Cycle, channels),
		openRow:         make([][]uint64, channels),
	}
	for i := range c.openRow {
		c.openRow[i] = make([]uint64, BanksPerChannel)
	}
	return c
}

// ChannelForBank maps an L3 bank to its DRAM channel (four banks per
// channel in the Table 3 configuration).
func (c *Controller) ChannelForBank(bank int) int { return bank / c.banksPerChannel }

// Access schedules a line read or write from the given L3 bank and runs
// done when the transfer completes. Timing only; data movement is the
// caller's job via Store.
func (c *Controller) Access(bank int, line addr.Line, write bool, done func()) {
	ch := c.ChannelForBank(bank)
	start := c.q.Now()
	if c.nextFree[ch] > start {
		start = c.nextFree[ch]
	}
	c.nextFree[ch] = start + c.occupancy

	rowID := uint64(line.Base()) >> rowShift
	dramBank := int(rowID % BanksPerChannel)
	row := rowID/BanksPerChannel + 1 // +1 so 0 means "no open row"
	latency := c.missLatency
	if c.openRow[ch][dramBank] == row {
		latency = c.hitLatency
		c.RowHits++
	} else {
		c.openRow[ch][dramBank] = row
		c.RowMisses++
	}

	if c.run != nil {
		if write {
			c.run.DRAMWrites++
		} else {
			c.run.DRAMReads++
		}
	}
	c.q.At(start+latency, done)
}

// QueueDelay reports how far ahead of now the channel for bank is booked;
// useful for tests asserting the bandwidth model engages.
func (c *Controller) QueueDelay(bank int) event.Cycle {
	ch := c.ChannelForBank(bank)
	if c.nextFree[ch] <= c.q.Now() {
		return 0
	}
	return c.nextFree[ch] - c.q.Now()
}
