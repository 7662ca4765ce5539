package pyramid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"m4lsm/internal/encoding"
	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

// The manifest is magic | payload | CRC32(payload), where payload is
// uvarint watermark, uvarint nSeries and, per series in id order: uvarint
// len(id), id, extent (0, or 1 | varint minT | varint maxT), stale set,
// uvarint nLevels and, when nLevels > 0, uvarint base log, every level's
// cover set finest first, uvarint nCells and the base cells as columns: a
// role byte per cell, then the times (encoding.EncodeTimes) and values
// (encoding.EncodeValues) of each cell's distinct points (see roles). A
// set is uvarint n | n × (varint lo | varint hi). A cell's index is its
// First's time >> log; the coarser levels' cells are derived on Decode, and
// generations are volatile.
var manifestMagic = []byte{'M', '4', 'P', 'Y', 0x02}

// errCorrupt reports an unreadable manifest. Its owner discards it and
// re-marks every chunk stale.
var errCorrupt = errors.New("pyramid: corrupt manifest")

// Encode serializes every series' extent, stale set, covers and base cells
// with the version watermark wm, CRC-trailed, and clears Dirty. It holds
// only the read lock, so views, plans and other readers proceed during an
// encode; writers (MarkStale, a rebuild's apply) wait for it. The output
// is one buffer sized from the last manifest encoded or decoded.
func (p *Pyramid) Encode(wm uint64) []byte {
	p.enc.Lock()
	defer p.enc.Unlock()
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.dirty.Store(false)
	ids := make([]string, 0, len(p.series))
	for id := range p.series {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := append(make([]byte, 0, p.enc.size+p.enc.size/8), manifestMagic...)
	buf = encoding.AppendUvarint(buf, wm)
	buf = encoding.AppendUvarint(buf, uint64(len(ids)))
	points := 0
	for _, id := range ids {
		sp := p.series[id]
		buf = encoding.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
		if sp.hasExtent {
			buf = append(buf, 1)
			buf = encoding.AppendVarint(buf, sp.minT)
			buf = encoding.AppendVarint(buf, sp.maxT)
		} else {
			buf = append(buf, 0)
		}
		buf = appendRset(buf, sp.stale)
		buf = encoding.AppendUvarint(buf, uint64(len(sp.levels)))
		if len(sp.levels) == 0 {
			continue
		}
		buf = encoding.AppendUvarint(buf, uint64(sp.levels[0].log))
		for _, lv := range sp.levels {
			buf = appendRset(buf, lv.cover)
		}
		base := sp.levels[0].cells
		buf = encoding.AppendUvarint(buf, uint64(len(base)))
		times, vals := p.enc.times[:0], p.enc.vals[:0]
		for i := range base {
			var d [4]series.Point
			n, code := roles(&base[i].agg, &d)
			buf = append(buf, code)
			for _, pt := range d[:n] {
				times, vals = append(times, pt.T), append(vals, pt.V)
			}
		}
		buf = encoding.EncodeValues(encoding.EncodeTimes(buf, times), vals)
		points += len(times)
		p.enc.times, p.enc.vals = times, vals
	}
	p.enc.size = len(buf) + 4
	p.points.Store(int64(points))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(manifestMagic):]))
}

// roles writes a cell's distinct points (by time and value bits) to d in
// their order of first appearance among First, Bottom, Top and Last, and
// returns their count and the cell's role byte: the index in d of each of
// the four, two bits each in that order.
func roles(a *m4.Aggregate, d *[4]series.Point) (n int, code byte) {
	for r, pt := range [4]series.Point{a.First, a.Bottom, a.Top, a.Last} {
		k := 0
		for k < n && (d[k].T != pt.T || math.Float64bits(d[k].V) != math.Float64bits(pt.V)) {
			k++
		}
		if k == n {
			d[k], n = pt, n+1
		}
		code |= byte(k) << (2 * r)
	}
	return n, code
}

// roleCount returns how many distinct points role byte c names.
func roleCount(c byte) int { return int(max(c&3, c>>2&3, c>>4&3, c>>6)) + 1 }

// Decode inverts Encode, returning the restored pyramid (not Dirty) and its
// watermark. Any framing violation rejects the whole manifest, and every
// count is bounded by the bytes left before anything is allocated for it.
// The coarser levels are derived only once every series has parsed, so a
// rejected manifest allocates no more than its base cells.
func Decode(data []byte) (*Pyramid, uint64, error) {
	if len(data) < len(manifestMagic)+4 || string(data[:len(manifestMagic)]) != string(manifestMagic) {
		return nil, 0, errCorrupt
	}
	d := &decoder{b: data[len(manifestMagic) : len(data)-4]}
	if crc32.ChecksumIEEE(d.b) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, 0, errCorrupt
	}
	wm := d.uvarint()
	// A series takes at least 4 bytes: id length, extent flag, stale-set
	// count and level count.
	nSeries := d.count(4, 0)
	p := &Pyramid{series: make(map[string]*seriesPyramid, nSeries)}
	points := 0
	var times []int64 // the column buffers, shared by every series
	var vals []float64
	for si := uint64(0); si < nSeries && d.err == nil; si++ {
		id := string(d.take(d.uvarint()))
		sp := &seriesPyramid{}
		if flag := d.take(1); len(flag) == 1 && flag[0] == 1 {
			sp.minT, sp.maxT, sp.hasExtent = d.varint(), d.varint(), true
		}
		sp.stale = d.rset()
		p.series[id] = sp
		nLevels := d.uvarint()
		if nLevels == 0 || d.err != nil {
			continue
		}
		log := d.uvarint()
		d.check(nLevels <= maxLevels && log <= 62 && log+nLevels-1 <= 62)
		for li := uint64(0); li < nLevels && d.err == nil; li++ {
			lv := &level{log: uint(log + li), cover: d.rset()}
			// A parent cover claims only cells whose two children are
			// covered, so derivation never invents a cell.
			for _, r := range lv.cover {
				d.check(li == 0 || (r.lo<<1>>1 == r.lo && r.hi<<1>>1 == r.hi && sp.levels[li-1].cover.contains(r.lo<<1, r.hi<<1)))
			}
			sp.levels = append(sp.levels, lv)
		}
		codes := d.take(d.count(1, 0))
		n := 0
		for _, c := range codes {
			n += roleCount(c)
		}
		// Every time takes at least a byte.
		d.check(n <= len(d.b)-d.off)
		if d.err != nil {
			break
		}
		if cap(times) < n {
			times, vals = make([]int64, n), make([]float64, n)
		}
		ts, rest, err := encoding.DecodeTimesInto(times[:n], d.b[d.off:])
		var vs []float64
		if err == nil {
			vs, rest, err = encoding.DecodeValuesInto(vals[:n], rest)
		}
		d.check(err == nil && len(ts) == n && len(vs) == n)
		if d.err != nil {
			break
		}
		d.off = len(d.b) - len(rest)
		d.baseCells(sp.levels[0], codes, ts, vs)
		points += n
	}
	d.check(d.off == len(d.b))
	if d.err != nil {
		return nil, 0, d.err
	}
	for _, sp := range p.series {
		for li := 1; li < len(sp.levels); li++ {
			child, parent := sp.levels[li-1], sp.levels[li]
			n := 0 // the child cells' distinct parents bound the cells derived
			for k := range child.cells {
				if k == 0 || child.cells[k].idx>>1 != child.cells[k-1].idx>>1 {
					n++
				}
			}
			parent.cells = make([]cellAt, 0, n)
			at := 0 // fold's cursor into child.cells
			for _, r := range parent.cover {
				parent.cells, at = fold(parent.cells, child.cells, at, r.lo, r.hi, parent.cover)
			}
		}
	}
	p.points.Store(int64(points))
	p.enc.size = len(data)
	return p, wm, nil
}

// baseCells rebuilds the base level's cells from their role bytes and the
// columns of their distinct points, refusing a point outside its First's
// cell, and cells out of index order or outside the level's cover.
func (d *decoder) baseCells(lv *level, codes []byte, times []int64, vals []float64) {
	lv.cells = make([]cellAt, len(codes))
	at := 0
	for i, c := range codes {
		pt := func(r int) series.Point { k := at + int(c>>r&3); return series.Point{T: times[k], V: vals[k]} }
		a := m4.Aggregate{First: pt(0), Bottom: pt(2), Top: pt(4), Last: pt(6)}
		idx := a.First.T >> lv.log
		d.check(a.Bottom.T>>lv.log == idx && a.Top.T>>lv.log == idx && a.Last.T>>lv.log == idx &&
			lv.cover.contains(idx, idx+1) && (i == 0 || idx > lv.cells[i-1].idx))
		lv.cells[i] = cellAt{idx: idx, agg: a}
		at += roleCount(c)
	}
}

func appendRset(dst []byte, s rset) []byte {
	dst = encoding.AppendUvarint(dst, uint64(len(s)))
	for _, r := range s {
		dst = encoding.AppendVarint(dst, r.lo)
		dst = encoding.AppendVarint(dst, r.hi)
	}
	return dst
}

// decoder reads a manifest payload front to back. Its first error sticks:
// every later read returns zero values and consumes nothing, so Decode
// checks once per loop instead of once per field. The position is an
// offset, not a re-sliced b, so a read stores no pointer.
type decoder struct {
	b   []byte
	off int
	err error
}

// check fails the decode with errCorrupt unless ok.
func (d *decoder) check(ok bool) {
	if !ok && d.err == nil {
		d.err = errCorrupt
	}
}

// uvarint calls binary.Uvarint directly: it inlines.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad varint at payload byte %d", errCorrupt, d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 { return encoding.UnZigZag(d.uvarint()) }

// take consumes the next n bytes.
func (d *decoder) take(n uint64) []byte {
	d.check(n <= uint64(len(d.b)-d.off))
	if d.err != nil {
		return nil
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off]
}

// count reads a count of items of at least size bytes each, refusing one
// the remaining bytes (plus slack items) cannot hold.
func (d *decoder) count(size, slack uint64) uint64 {
	n := d.uvarint()
	d.check(n <= uint64(len(d.b)-d.off)/size+slack)
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) rset() rset {
	n := d.count(2, 1)
	var out rset
	for i := uint64(0); i < n && d.err == nil; i++ {
		lo, hi := d.varint(), d.varint()
		if d.err == nil && (hi <= lo || (i > 0 && lo <= out[i-1].hi)) {
			d.err = fmt.Errorf("%w: unsorted range set", errCorrupt)
		}
		out = append(out, rng{lo, hi})
	}
	return out
}
