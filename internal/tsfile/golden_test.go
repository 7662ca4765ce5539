package tsfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/storage"
)

// goldenChunks regenerates the three chunks of testdata/parent-c39d07c/
// golden.tsf from a fixed seed: MF03-shaped high-entropy values on a
// near-regular 10 ms clock, a constant run, and the floats that stress the
// XOR window (signed zeros, infinities, subnormals, sign and max-exponent
// flips).
func goldenChunks() []series.Series {
	const n = 1200
	rng := rand.New(rand.NewSource(0xc39d07c))
	walk := make(series.Series, n)
	t, v := int64(1_639_000_000_000), 230.0
	for i := range walk {
		t += 10
		if rng.Intn(400) == 0 {
			t += int64(rng.Intn(5000))
		}
		v += rng.NormFloat64() * 0.37
		walk[i] = series.Point{T: t, V: v}
	}
	flat := make(series.Series, n)
	for i := range flat {
		flat[i] = series.Point{T: int64(i) * 1000, V: 42.5}
	}
	edges := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
		math.Float64frombits(0x7fe0000000000001), math.Float64frombits(0x0000000000000001),
		math.Float64frombits(0x8000000000000001), math.Float64frombits(0xffefffffffffffff),
	}
	edge := make(series.Series, n)
	t = -600
	for i := range edge {
		t += int64(1 + rng.Intn(3)*rng.Intn(1<<20))
		ev := edges[rng.Intn(len(edges))]
		if rng.Intn(4) == 0 {
			ev = edges[i%len(edges)]
		}
		edge[i] = series.Point{T: t, V: ev}
	}
	return []series.Series{walk, flat, edge}
}

// writeGolden writes goldenChunks to path as one chunk file.
func writeGolden(path string) error {
	w, err := Create(path)
	if err != nil {
		return err
	}
	for i, data := range goldenChunks() {
		id := []string{"root.walk", "root.flat", "root.edge"}[i]
		if _, err := w.WriteChunk(id, storage.Version(i+1), encoding.CodecGorilla, data); err != nil {
			return err
		}
	}
	return w.Close()
}

// footerStart returns the offset at which raw's footer begins: everything
// before it is the file magic and the chunks.
func footerStart(t *testing.T, raw []byte) int {
	t.Helper()
	const tailLen = 4 + 8 + 4
	if len(raw) < tailLen {
		t.Fatalf("%d-byte file has no tail", len(raw))
	}
	off := len(raw) - tailLen - int(binary.LittleEndian.Uint64(raw[len(raw)-12:]))
	if off < len(fileMagic) || off > len(raw)-tailLen {
		t.Fatalf("footer length points outside a %d-byte file", len(raw))
	}
	return off
}

// checkGoldenChunks reads every chunk of r in full, timestamps only and
// values only, and wants goldenChunks' points bit for bit.
func checkGoldenChunks(t *testing.T, r *Reader, metas []storage.ChunkMeta) {
	t.Helper()
	want := goldenChunks()
	if len(metas) != len(want) {
		t.Fatalf("golden file holds %d chunks, want %d", len(metas), len(want))
	}
	for i, m := range metas {
		if len(want[i]) < 1000 {
			t.Fatalf("chunk %d regenerates to %d points, want >= 1000", i, len(want[i]))
		}
		cols, err := r.ReadChunk(m)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		ts, err := r.ReadTimes(m)
		if err != nil {
			t.Fatalf("chunk %d times: %v", i, err)
		}
		vs, err := r.ReadValues(m)
		if err != nil {
			t.Fatalf("chunk %d values: %v", i, err)
		}
		if cols.Len() != len(want[i]) || len(ts) != len(want[i]) || len(vs) != len(want[i]) {
			t.Fatalf("chunk %d: decoded %d points / %d times / %d values, want %d", i, cols.Len(), len(ts), len(vs), len(want[i]))
		}
		for j, p := range want[i] {
			got := cols.At(j)
			if got.T != p.T || ts[j] != p.T || math.Float64bits(got.V) != math.Float64bits(p.V) || math.Float64bits(vs[j]) != math.Float64bits(p.V) {
				t.Fatalf("chunk %d point %d: decoded (%d, %x), times-only %d, values-only %x, want (%d, %x)",
					i, j, got.T, math.Float64bits(got.V), ts[j], math.Float64bits(vs[j]), p.T, math.Float64bits(p.V))
			}
		}
	}
}

// TestParentChunkFileRoundTrips pins "same bytes on disk" for the chunks
// across the codec rewrite and the footer's move to format 2:
// testdata/parent-c39d07c/golden.tsf was written by writeGolden running the
// bit-at-a-time codec of commit c39d07c, with a format-1 footer that
// nothing reads any more. The current writer must produce the identical
// file up to the footer from the regenerated points, and the current
// decoders, pointed at the parent's blocks by the new footer's metadata,
// must read them back bit for bit.
func TestParentChunkFileRoundTrips(t *testing.T) {
	golden := filepath.Join("testdata", "parent-c39d07c", "golden.tsf")
	old, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReaderAt(bytes.NewReader(old), int64(len(old)), golden); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opening a format-1 file: %v, want ErrCorrupt", err)
	}
	rewritten := filepath.Join(t.TempDir(), "rewritten.tsf")
	if err := writeGolden(rewritten); err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if o, n := footerStart(t, old), footerStart(t, now); !bytes.Equal(old[:o], now[:n]) {
		t.Fatalf("re-encoding the golden points gives %d bytes of chunks that differ from the parent's %d", n, o)
	}
	r, err := Open(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	parent := &Reader{ra: bytes.NewReader(old), size: int64(len(old)), path: golden}
	checkGoldenChunks(t, parent, r.Metas())
}

// TestFooterFormat2Golden pins the format-2 footer: testdata/footer-m4f2/
// golden.tsf is writeGolden's output with the step model in every chunk's
// metadata. It must open and decode to the golden points, each model must
// be the fit of its chunk's timestamps, and the current writer must
// produce the same bytes, footer included.
func TestFooterFormat2Golden(t *testing.T) {
	golden := filepath.Join("testdata", "footer-m4f2", "golden.tsf")
	r, err := Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkGoldenChunks(t, r, r.Metas())
	for i, m := range r.Metas() {
		ts, err := r.ReadTimes(m)
		if err != nil {
			t.Fatal(err)
		}
		if fit := stepreg.Fit(ts); !reflect.DeepEqual(m.Step, fit) {
			t.Fatalf("chunk %d: footer model %+v, fit of its timestamps %+v", i, m.Step, fit)
		}
	}
	rewritten := filepath.Join(t.TempDir(), "rewritten.tsf")
	if err := writeGolden(rewritten); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoding the golden points gives %d bytes that differ from the %d-byte format-2 file", len(got), len(want))
	}
}
