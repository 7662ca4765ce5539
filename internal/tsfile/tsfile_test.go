package tsfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

func genSeries(n int, seed int64) series.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(series.Series, n)
	t := int64(1_600_000_000_000)
	v := 50.0
	for i := 0; i < n; i++ {
		t += int64(1 + rng.Intn(2000))
		v += rng.NormFloat64()
		s[i] = series.Point{T: t, V: v}
	}
	return s
}

func writeFile(t *testing.T, path string, chunks map[string][]series.Series) []storage.ChunkMeta {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var metas []storage.ChunkMeta
	ver := storage.Version(1)
	for id, datas := range chunks {
		for _, data := range datas {
			m, err := w.WriteChunk(id, ver, encoding.CodecGorilla, data)
			if err != nil {
				t.Fatal(err)
			}
			metas = append(metas, m)
			ver++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return metas
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.tsf")
	s1 := genSeries(500, 1)
	s2 := genSeries(3, 2)
	writeFile(t, path, map[string][]series.Series{"root.sg.s1": {s1}, "root.sg.s2": {s2}})

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Metas()) != 2 {
		t.Fatalf("metas = %d", len(r.Metas()))
	}
	for _, m := range r.Metas() {
		want := s1
		if m.SeriesID == "root.sg.s2" {
			want = s2
		}
		got, err := r.ReadChunk(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points(), want) {
			t.Fatalf("chunk %s: %d pts, want %d", m.SeriesID, got.Len(), len(want))
		}
		ts, err := r.ReadTimes(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ts, want.Times()) {
			t.Fatalf("times %s mismatch", m.SeriesID)
		}
		vs, err := r.ReadValues(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vs, want.Values()) {
			t.Fatalf("values %s mismatch", m.SeriesID)
		}
		// Metadata must match ComputeMeta of the data.
		f, l, b, tp, _ := storage.ComputeMeta(want)
		if m.First != f || m.Last != l || m.Bottom != b || m.Top != tp {
			t.Fatalf("meta points mismatch: %+v", m)
		}
		if m.Count != int64(len(want)) {
			t.Fatalf("count = %d", m.Count)
		}
	}
}

func TestBothCodecs(t *testing.T) {
	dir := t.TempDir()
	data := genSeries(256, 3)
	for _, codec := range []encoding.Codec{encoding.CodecGorilla, encoding.CodecPlain} {
		path := filepath.Join(dir, codec.String()+".tsf")
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteChunk("s", 1, codec, data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadChunk(r.Metas()[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points(), data) {
			t.Fatalf("%v: data mismatch", codec)
		}
		r.Close()
	}
}

func TestWriterRejectsBadChunks(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "x.tsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if _, err := w.WriteChunk("s", 1, encoding.CodecGorilla, nil); err == nil {
		t.Error("empty chunk accepted")
	}
	if _, err := w.WriteChunk("s", 1, encoding.CodecGorilla, series.Series{{T: 2, V: 0}, {T: 1, V: 0}}); err == nil {
		t.Error("unsorted chunk accepted")
	}
	if _, err := w.WriteChunk("s", 1, encoding.Codec(9), series.Series{{T: 1, V: 0}}); err == nil {
		t.Error("bad codec accepted")
	}
}

func TestWriteAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteChunk("s", 1, encoding.CodecGorilla, series.Series{{T: 1, V: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteChunk("s", 2, encoding.CodecGorilla, series.Series{{T: 2, V: 0}}); err == nil {
		t.Error("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Error("second close must be a no-op:", err)
	}
}

func TestAbortLeavesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteChunk("s", 1, encoding.CodecGorilla, series.Series{{T: 1, V: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("aborted file still exists")
	}
}

func TestOpenRejectsUnclosedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteChunk("s", 1, encoding.CodecGorilla, genSeries(100, 4)); err != nil {
		t.Fatal(err)
	}
	w.w.Flush() // simulate crash before footer
	w.f.Close()
	if _, err := Open(path); err == nil {
		t.Fatal("unclosed file opened successfully")
	}
}

func TestOpenRejectsCorruptFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	writeFile(t, path, map[string][]series.Series{"s": {genSeries(100, 5)}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 0xFF // inside footer
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

// TestOpenRejectsStepModelThatCannotFit: a footer whose checksum holds but
// whose step model cannot belong to its chunk (no median, a changing point
// out of range, out of order, or more of them than the chunk has room for)
// is a corrupt file, not a model for a query to bind.
func TestOpenRejectsStepModelThatCannotFit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	metas := writeFile(t, path, map[string][]series.Series{"s": {genSeries(64, 5)}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	chunks := raw[:footerStart(t, raw)]
	for _, bad := range []*stepreg.Model{
		{Median: 0},
		{Median: 1, Changing: []int{64}},
		{Median: 1, Changing: []int{9, 9}},
		{Median: 1, Changing: []int{1}},
		{Median: 1, Changing: make([]int, 63)},
	} {
		m := metas[0]
		m.Step = bad
		footer := appendMeta(encoding.AppendUvarint(nil, 1), m)
		file := append(append([]byte(nil), chunks...), footer...)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(footer))
		file = binary.LittleEndian.AppendUint64(file, uint64(len(footer)))
		file = append(file, footerMagic...)
		if _, err := OpenReaderAt(bytes.NewReader(file), int64(len(file)), "bad-model"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("model %+v for 64 points: open error %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestReadDetectsCorruptChunkData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	metas := writeFile(t, path, map[string][]series.Series{"s": {genSeries(200, 6)}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := metas[0]
	raw[m.Offset+int64(m.HeaderLen)+2] ^= 0xFF // inside timestamp block
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path) // footer is intact
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadChunk(r.Metas()[0]); err == nil {
		t.Error("corrupt timestamp block read successfully")
	}
	if _, err := r.ReadTimes(r.Metas()[0]); err == nil {
		t.Error("corrupt timestamp block (times path) read successfully")
	}
	// A value-only read verifies the value block alone: the timestamp block
	// is the one its caller's ReadTimes already checked.
	vs, err := r.ReadValues(r.Metas()[0])
	if err != nil || !reflect.DeepEqual(vs, genSeries(200, 6).Values()) {
		t.Errorf("ReadValues on timestamp-block corruption = %v, %v; want the intact values", len(vs), err)
	}
}

func TestReadDetectsCorruptValueBlockOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	metas := writeFile(t, path, map[string][]series.Series{"s": {genSeries(200, 7)}})
	raw, _ := os.ReadFile(path)
	m := metas[0]
	raw[m.Offset+int64(m.HeaderLen)+m.TimesLen+2] ^= 0xFF // inside value block
	os.WriteFile(path, raw, 0o644)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadChunk(r.Metas()[0]); err == nil {
		t.Error("corrupt value block read successfully")
	}
	if _, err := r.ReadValues(r.Metas()[0]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt value block, value-only read: err = %v, want ErrCorrupt", err)
	}
	// Timestamp-only read must still succeed: the corruption is confined
	// to the value block, which partial loads never touch.
	if _, err := r.ReadTimes(r.Metas()[0]); err != nil {
		t.Errorf("ReadTimes failed on value-block corruption: %v", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.tsf")); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestManyChunksOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "many.tsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []series.Series
	for i := 0; i < 50; i++ {
		data := genSeries(20+i, int64(i))
		want = append(want, data)
		if _, err := w.WriteChunk("s", storage.Version(i+1), encoding.CodecGorilla, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, m := range r.Metas() {
		got, err := r.ReadChunk(m)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Points(), want[i]) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

// TestRecordLogRoundTrip: records appended in groups reopen in order, and
// Size tracks the file.
func TestRecordLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	log, recs, err := OpenRecordLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	payloads := [][]byte{[]byte("a"), []byte("bb"), {}, []byte("dddd")}
	if err := log.Append(payloads[:3], false); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(payloads[3:], true); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != log.Size() {
		t.Fatalf("file %v (%v), Size %d", fi, err, log.Size())
	}
	log.Close()
	_, recs, err = OpenRecordLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i := range payloads {
		if string(recs[i]) != string(payloads[i]) {
			t.Errorf("record %d = %q", i, recs[i])
		}
	}
}

// TestRecordLogTruncatesTornTail: a torn tail is cut off and reported, the
// log stays appendable, and Truncate empties it.
func TestRecordLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	log, _, err := OpenRecordLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([][]byte{[]byte("complete")}, true)
	log.Append([][]byte{[]byte("torn-record")}, true)
	log.Close()
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-3], 0o644) // crash mid-append
	log2, recs, err := OpenRecordLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "complete" {
		t.Fatalf("recovered %q", recs)
	}
	if torn, aside := log2.Torn(); torn != int64(len(raw)-3-13) || aside != "" {
		t.Fatalf("Torn = %d, %q; want the torn record's %d bytes, not kept", torn, aside, len(raw)-3-13)
	}
	// The log must be appendable after truncation.
	if err := log2.Append([][]byte{[]byte("after")}, true); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	log3, recs, err := OpenRecordLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1]) != "after" {
		t.Fatalf("after re-append: %q", recs)
	}
	if err := log3.Truncate(); err != nil || log3.Size() != 0 {
		t.Fatalf("Truncate: %v, Size %d", err, log3.Size())
	}
	if err := log3.Append([][]byte{[]byte("fresh")}, true); err != nil {
		t.Fatal(err)
	}
	log3.Close()
	if _, recs, _ := OpenRecordLog(path, false); len(recs) != 1 || string(recs[0]) != "fresh" {
		t.Fatalf("after Truncate: %q", recs)
	}
}

func TestModLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.mods")
	m, err := OpenModLog(path)
	if err != nil {
		t.Fatal(err)
	}
	dels := []storage.Delete{
		{SeriesID: "s1", Version: 3, Start: 10, End: 20},
		{SeriesID: "s2", Version: 4, Start: -5, End: 5},
		{SeriesID: "s1", Version: 9, Start: 100, End: 100},
	}
	for _, d := range dels {
		if err := m.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.All(); !reflect.DeepEqual(got, dels) {
		t.Fatalf("All = %v", got)
	}
	m.Close()
	m2, err := OpenModLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !reflect.DeepEqual(m2.All(), dels) {
		t.Fatalf("recovered %v, want %v", m2.All(), dels)
	}
}

func TestModLogRejectsInvertedRange(t *testing.T) {
	m, err := OpenModLog(filepath.Join(t.TempDir(), "db.mods"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Append(storage.Delete{SeriesID: "s", Version: 1, Start: 10, End: 5}); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestEveryLoadShapeChecksCount: a count the blocks do not hold is
// corruption on every load shape, and a count no block could hold is
// refused before anything is allocated for it.
func TestEveryLoadShapeChecksCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tsf")
	m := writeFile(t, path, map[string][]series.Series{"s": {genSeries(300, 9)}})[0]
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	shapes := map[string]func(storage.ChunkMeta) error{
		"chunk":  func(m storage.ChunkMeta) error { _, err := r.ReadChunk(m); return err },
		"times":  func(m storage.ChunkMeta) error { _, err := r.ReadTimes(m); return err },
		"values": func(m storage.ChunkMeta) error { _, err := r.ReadValues(m); return err },
	}
	for name, read := range shapes {
		for _, count := range []int64{m.Count - 1, m.Count + 1, -1, 1 << 34} {
			bad := m
			bad.Count = count
			if err := read(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s with count %d: err = %v, want ErrCorrupt", name, count, err)
			}
		}
	}
}

func TestReadTimesCheaperThanReadChunk(t *testing.T) {
	// The partial load contract: ReadTimes must touch fewer bytes. We
	// verify via the meta lengths, which ChunkRef uses for accounting.
	path := filepath.Join(t.TempDir(), "x.tsf")
	metas := writeFile(t, path, map[string][]series.Series{"s": {genSeries(1000, 8)}})
	m := metas[0]
	if m.TimesLen <= 0 || m.ValuesLen <= 0 {
		t.Fatalf("bad lengths: %+v", m)
	}
	if int64(m.HeaderLen)+m.TimesLen >= int64(m.HeaderLen)+m.TimesLen+m.ValuesLen {
		t.Fatal("times read not cheaper than full read")
	}
}
