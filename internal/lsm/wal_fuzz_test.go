package lsm

import (
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// The WAL decoders parse bytes recovered from disk after a crash; arbitrary
// input must never panic, and anything they accept must survive a re-encode
// round trip (no two payloads decoding to states that re-encode
// differently from what was stored). The encoders prefix the body with the
// op byte and a one-byte shard tag (0), hence the [2:].

// encodeInsert is one insert record in a buffer of its own.
func encodeInsert(seriesID string, pts []series.Point) []byte {
	return appendInsert(make([]byte, 0, insertSize(seriesID, pts)), seriesID, pts)
}

func FuzzDecodeInsert(f *testing.F) {
	f.Add(encodeInsert("s1", []series.Point{{T: 10, V: 1.5}, {T: -3, V: 0}})[2:])
	f.Add(encodeInsert("", nil)[2:])
	f.Add(encodeInsert("unicode-séries", []series.Point{{T: math.MaxInt64, V: math.Inf(1)}})[2:])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		id, pts, err := decodeInsert(b)
		if err != nil {
			return
		}
		enc := encodeInsert(id, pts)
		if len(enc) != insertSize(id, pts) || len(enc) != cap(enc) {
			t.Fatalf("insert record of %d bytes in a buffer of %d, insertSize says %d", len(enc), cap(enc), insertSize(id, pts))
		}
		id2, pts2, err := decodeInsert(enc[2:])
		if err != nil {
			t.Fatalf("re-encode of accepted payload rejected: %v", err)
		}
		if id2 != id || len(pts2) != len(pts) {
			t.Fatalf("round trip changed payload: (%q,%d pts) -> (%q,%d pts)", id, len(pts), id2, len(pts2))
		}
		for i := range pts {
			if pts[i].T != pts2[i].T || math.Float64bits(pts[i].V) != math.Float64bits(pts2[i].V) {
				t.Fatalf("point %d changed: %v -> %v", i, pts[i], pts2[i])
			}
		}
	})
}

// TestEncodeEntries: a request's records share one buffer of exactly their
// total size, each payload is the bytes encodeInsert writes for its entry,
// and an empty entry writes no record.
func TestEncodeEntries(t *testing.T) {
	entries := []BatchEntry{
		{SeriesID: "s1", Points: []series.Point{{T: 10, V: 1.5}, {T: -3, V: 0}}},
		{SeriesID: "empty"},
		{SeriesID: "unicode-séries", Points: []series.Point{{T: math.MinInt64, V: -1}, {T: math.MaxInt64 - 1, V: 2}}},
		{SeriesID: string(make([]byte, 200)), Points: []series.Point{{T: 1 << 40, V: math.Inf(-1)}}},
	}
	recs := encodeEntries(entries, 3)
	var want [][]byte
	for _, ent := range entries {
		if len(ent.Points) > 0 {
			want = append(want, encodeInsert(ent.SeriesID, ent.Points))
		}
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("records % x, want % x", recs, want)
	}
	for i, r := range recs {
		if cap(r) != len(want[i]) {
			t.Fatalf("record %d has capacity %d past its %d bytes", i, cap(r), len(want[i]))
		}
	}
	// One allocation for the bytes, one for the payload headers.
	if n := testing.AllocsPerRun(10, func() { encodeEntries(entries, 3) }); n != 2 {
		t.Fatalf("encodeEntries made %v allocations, want 2", n)
	}
}

func FuzzDecodeWALDelete(f *testing.F) {
	f.Add(encodeDelete(storage.Delete{SeriesID: "s1", Version: 7, Start: -10, End: 10})[2:])
	f.Add(encodeDelete(storage.Delete{Version: math.MaxUint64 >> 1})[2:])
	f.Add([]byte{})
	f.Add([]byte{0x01, 's', 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeWALDelete(b)
		if err != nil {
			return
		}
		d2, err := decodeWALDelete(encodeDelete(d)[2:])
		if err != nil {
			t.Fatalf("re-encode of accepted payload rejected: %v", err)
		}
		if d2 != d {
			t.Fatalf("round trip changed delete: %v -> %v", d, d2)
		}
	})
}

// FuzzBackupManifest: the manifest decoder gates whether a backup set is
// trusted at all; arbitrary bytes must never panic, every rejection must
// wrap tsfile.ErrCorrupt, and an accepted manifest must survive an
// encode/decode round trip.
func FuzzBackupManifest(f *testing.F) {
	good, _ := EncodeBackupManifest(BackupManifest{
		CreatedUnix: 1700000000,
		NextVersion: 9,
		Files: []BackupFile{
			{Name: "000001.seq.tsf", Size: 128, CRC: 0x1234},
			{Name: "wal-0000000000000001.log", Size: 21, CRC: 0x5678},
		},
	})
	f.Add(good)
	parent, _ := hex.DecodeString(parentBackupManifest)
	f.Add(parent)
	empty, _ := EncodeBackupManifest(BackupManifest{})
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("M4BK"))
	f.Add(append([]byte("M4BK\x01\x00\x00\x00\x00"), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeBackupManifest(b)
		if err != nil {
			if !errors.Is(err, tsfile.ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		enc, err := EncodeBackupManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		m2, err := DecodeBackupManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed manifest: %+v -> %+v", m, m2)
		}
	})
}
