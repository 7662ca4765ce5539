package tsfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"m4lsm/internal/stepreg"
)

// fuzzSeedFile returns the raw bytes of a small valid chunk file.
func fuzzSeedFile(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.tsf")
	w, err := Create(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.WriteChunk("s", 1, genSeries(32, 5).Columns()); err != nil {
		f.Fatal(err)
	}
	if _, err := w.WriteChunk("t", 2, genSeries(8, 6).Columns()); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzOpen feeds arbitrary bytes to the footer parser and the chunk
// readers. Whatever the input, Open/ReadChunk/ReadTimes must either error
// or succeed — never panic or run away — and a step model the footer
// yields must bind to its chunk's timestamps and answer probes exactly.
func FuzzOpen(f *testing.F) {
	raw := fuzzSeedFile(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-3]) // truncated tail
	f.Add(raw[:len(raw)/2]) // truncated mid-file
	f.Add([]byte{})
	f.Add([]byte("M4TS\x01"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	golden, err := os.ReadFile(filepath.Join("testdata", "footer-m4f2", "golden.tsf"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)), "fuzz")
		if err != nil {
			return
		}
		defer r.Close()
		for _, m := range r.Metas() {
			r.ReadChunk(m)
			r.ReadValues(m)
			ts, err := r.ReadTimes(m)
			if err != nil {
				continue
			}
			ix, plain := stepreg.Bind(m.Step, ts), stepreg.NewPlain(ts)
			for _, q := range ts {
				if !ix.Exists(q) {
					t.Fatalf("chunk %s v%d: Exists(%d) misses its own timestamp", m.SeriesID, m.Version, q)
				}
				i, ok := ix.LastBefore(q)
				want, wantOK := plain.LastBefore(q)
				if i != want || ok != wantOK {
					t.Fatalf("chunk %s v%d: LastBefore(%d) = %d, %v, want %d, %v", m.SeriesID, m.Version, q, i, ok, want, wantOK)
				}
			}
		}
	})
}

// FuzzRecordLog feeds arbitrary bytes to the record-log recovery scan. The
// scan must never panic, must keep every byte it cuts off aside, must stay
// appendable afterwards, and every record it recovers must survive a
// reopen.
func FuzzRecordLog(f *testing.F) {
	var valid []byte
	{
		path := filepath.Join(f.TempDir(), "seed.log")
		log, _, err := OpenRecordLog(path, false)
		if err != nil {
			f.Fatal(err)
		}
		log.Append([][]byte{[]byte("first"), {}}, false)
		log.Append([][]byte{[]byte("third record")}, true)
		log.Close()
		valid, err = os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a', 'b'})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		log, recs, err := OpenRecordLog(path, true)
		if err != nil {
			return
		}
		torn, aside := log.Torn()
		if log.Size()+torn != int64(len(b)) {
			t.Fatalf("%d record bytes and %d torn, of %d", log.Size(), torn, len(b))
		}
		if torn > 0 {
			kept, err := os.ReadFile(aside)
			if err != nil || !bytes.Equal(kept, b[log.Size():]) {
				t.Fatalf("torn bytes kept as %q: %x (%v), want %x", aside, kept, err, b[log.Size():])
			}
		}
		// The log must remain appendable after recovering arbitrary bytes.
		if err := log.Append([][]byte{[]byte("after recovery")}, false); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		log2, recs2, err := OpenRecordLog(path, false)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer log2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen recovered %d records, want %d", len(recs2), len(recs)+1)
		}
		for i := range recs {
			if !bytes.Equal(recs2[i], recs[i]) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if !bytes.Equal(recs2[len(recs)], []byte("after recovery")) {
			t.Fatal("appended record lost")
		}
	})
}
