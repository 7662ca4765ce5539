package pyramid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
)

// The manifest is magic | payload | CRC32(payload), where payload is
// uvarint watermark, uvarint nSeries and, per series in id order: uvarint
// len(id), id, extent (0, or 1 | varint minT | varint maxT), stale set,
// uvarint nLevels and, per level finest first: uvarint log, cover set,
// uvarint nCells, then per cell in index order varint idx and FP, LP, BP,
// TP as varint t | 8-byte v. A set is uvarint n | n × (varint lo | varint
// hi). Generations are volatile and not persisted.
var manifestMagic = []byte{'M', '4', 'P', 'Y', 0x01}

// errCorrupt reports an unreadable manifest. Its owner discards it and
// re-marks every chunk stale.
var errCorrupt = errors.New("pyramid: corrupt manifest")

// Encode serializes every series' extent, stale set and levels with the
// version watermark wm, CRC-trailed, and clears Dirty. It holds only the
// read lock, so views, plans and other readers proceed during an encode;
// writers (MarkStale, a rebuild's apply) wait for it.
func (p *Pyramid) Encode(wm uint64) []byte {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.dirty.Store(false)
	ids := make([]string, 0, len(p.series))
	for id := range p.series {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := append([]byte(nil), manifestMagic...)
	var pl []byte
	pl = encoding.AppendUvarint(pl, wm)
	pl = encoding.AppendUvarint(pl, uint64(len(ids)))
	for _, id := range ids {
		sp := p.series[id]
		pl = encoding.AppendUvarint(pl, uint64(len(id)))
		pl = append(pl, id...)
		if sp.hasExtent {
			pl = append(pl, 1)
			pl = encoding.AppendVarint(pl, sp.minT)
			pl = encoding.AppendVarint(pl, sp.maxT)
		} else {
			pl = append(pl, 0)
		}
		pl = appendRset(pl, sp.stale)
		pl = encoding.AppendUvarint(pl, uint64(len(sp.levels)))
		for _, lv := range sp.levels {
			pl = encoding.AppendUvarint(pl, uint64(lv.log))
			pl = appendRset(pl, lv.cover)
			pl = encoding.AppendUvarint(pl, uint64(len(lv.cells)))
			for _, c := range lv.cells {
				pl = encoding.AppendVarint(pl, c.idx)
				for _, pt := range [4]series.Point{c.agg.First, c.agg.Last, c.agg.Bottom, c.agg.Top} {
					pl = encoding.AppendVarint(pl, pt.T)
					pl = binary.LittleEndian.AppendUint64(pl, math.Float64bits(pt.V))
				}
			}
		}
	}
	buf = append(buf, pl...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(pl))
}

// Decode inverts Encode, returning the restored pyramid (not Dirty) and its
// watermark. Any framing violation rejects the whole manifest, and every
// count is bounded by the bytes left before anything is allocated for it.
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
	for si := uint64(0); si < nSeries && d.err == nil; si++ {
		id := string(d.take(d.uvarint()))
		sp := &seriesPyramid{}
		if flag := d.take(1); len(flag) == 1 && flag[0] == 1 {
			sp.minT, sp.maxT, sp.hasExtent = d.varint(), d.varint(), true
		}
		sp.stale = d.rset()
		nLevels := d.uvarint()
		d.check(nLevels <= maxLevels)
		for li := uint64(0); li < nLevels && d.err == nil; li++ {
			log := d.uvarint()
			d.check(log <= 62 && (li == 0 || uint(log) > sp.levels[li-1].log))
			lv := &level{log: uint(log), cover: d.rset()}
			// 41 bytes minimum per cell bounds allocation to the input.
			nCells := d.count(41, 1)
			lv.cells = make([]cellAt, 0, nCells)
			for ci := uint64(0); ci < nCells && d.err == nil; ci++ {
				c := cellAt{idx: d.varint()}
				d.check(ci == 0 || c.idx > lv.cells[ci-1].idx)
				for _, pt := range [4]*series.Point{&c.agg.First, &c.agg.Last, &c.agg.Bottom, &c.agg.Top} {
					pt.T, pt.V = d.varint(), d.float()
				}
				lv.cells = append(lv.cells, c)
			}
			sp.levels = append(sp.levels, lv)
		}
		p.series[id] = sp
	}
	d.check(d.off == len(d.b))
	if d.err != nil {
		return nil, 0, d.err
	}
	return p, wm, nil
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

// uvarint calls binary.Uvarint directly: it inlines, and a manifest read is
// nine varints per cell.
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

func (d *decoder) float() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
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
