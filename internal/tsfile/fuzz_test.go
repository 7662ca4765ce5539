package tsfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"m4lsm/internal/encoding"
)

// fuzzSeedFile returns the raw bytes of a small valid chunk file.
func fuzzSeedFile(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.tsf")
	w, err := Create(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.WriteChunk("s", 1, encoding.CodecGorilla, genSeries(32, 5)); err != nil {
		f.Fatal(err)
	}
	if _, err := w.WriteChunk("t", 2, encoding.CodecPlain, genSeries(8, 6)); err != nil {
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
// or succeed — never panic or run away.
func FuzzOpen(f *testing.F) {
	raw := fuzzSeedFile(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-3]) // truncated tail
	f.Add(raw[:len(raw)/2]) // truncated mid-file
	f.Add([]byte{})
	f.Add([]byte("M4TS\x01"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)), "fuzz")
		if err != nil {
			return
		}
		defer r.Close()
		for _, m := range r.Metas() {
			r.ReadChunk(m)
			r.ReadTimes(m)
			r.ReadValues(m)
		}
	})
}

// FuzzRecordLog feeds arbitrary bytes to the record-log recovery scan. The
// scan must never panic, must stay appendable afterwards, and every record
// it recovers must survive a reopen.
func FuzzRecordLog(f *testing.F) {
	var valid []byte
	{
		path := filepath.Join(f.TempDir(), "seed.log")
		log, _, err := OpenRecordLog(path)
		if err != nil {
			f.Fatal(err)
		}
		log.Append([]byte("first"), false)
		log.Append([]byte{}, false)
		log.Append([]byte("third record"), true)
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
		log, recs, err := OpenRecordLog(path)
		if err != nil {
			return
		}
		// The log must remain appendable after recovering arbitrary bytes.
		if err := log.Append([]byte("after recovery"), false); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		log2, recs2, err := OpenRecordLog(path)
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

// FuzzSegmentHeader: the WAL segment header decoder parses the first bytes
// of files recovered after a crash; arbitrary input must never panic, every
// rejection must wrap ErrCorrupt, and anything accepted must re-encode to
// the exact bytes it was decoded from.
func FuzzSegmentHeader(f *testing.F) {
	f.Add(EncodeSegmentHeader(SegmentHeader{Version: SegmentVersion, Seq: 1, Shards: 4}))
	f.Add(EncodeSegmentHeader(SegmentHeader{Version: SegmentVersion, Seq: ^uint64(0), Shards: ^uint32(0)}))
	f.Add([]byte{})
	f.Add([]byte("M4WS"))
	f.Add(make([]byte, SegmentHeaderLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		hdr, err := DecodeSegmentHeader(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		enc := EncodeSegmentHeader(hdr)
		if len(b) < SegmentHeaderLen || !bytes.Equal(enc, b[:SegmentHeaderLen]) {
			t.Fatalf("accepted header re-encodes differently: %x vs %x", enc, b)
		}
	})
}
