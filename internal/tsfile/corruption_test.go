package tsfile

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// TestEveryByteFlip flips every byte of a chunk file, one at a time, and
// requires that Open/ReadChunk/ReadTimes/ReadValues never panic and never silently
// return wrong data: each outcome must be either an error or data
// identical to the original. (Flips inside the chunk header's encoded
// fields can go unnoticed because reads address chunks via the footer
// metadata — those flips must then leave the returned data intact.)
func TestEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "orig.tsf")
	data := genSeries(64, 11)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := w.WriteChunk("s", 1, data.Columns())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.tsf")
	for pos := 0; pos < len(raw); pos++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= mask
			if err := os.WriteFile(flipped, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic at byte %d mask %x: %v", pos, mask, r)
					}
				}()
				r, err := Open(flipped)
				if err != nil {
					return // detected at open
				}
				defer r.Close()
				for _, m := range r.Metas() {
					if vs, err := r.ReadValues(m); err == nil && !reflect.DeepEqual(vs, data.Values()) {
						t.Fatalf("byte %d mask %x: silent value corruption", pos, mask)
					}
					got, err := r.ReadChunk(m)
					if err != nil {
						continue // detected at read
					}
					// An accepted read must return the original data (the
					// flip hit an unread region, e.g. the redundant chunk
					// header fields) and intact metadata.
					if !reflect.DeepEqual(got.Points(), data) {
						t.Fatalf("byte %d mask %x: silent data corruption", pos, mask)
					}
					if m.Count != meta.Count || m.Version != meta.Version {
						t.Fatalf("byte %d mask %x: silent metadata corruption", pos, mask)
					}
					if _, err := r.ReadTimes(m); err != nil {
						// Full read succeeded but times failed: allowed
						// (independent checksums), never silent.
						continue
					}
				}
			}()
		}
	}
}

// TestModsEveryByteFlip does the same for the delete sidecar: every flip
// must either drop records (torn tail) or error — never panic or invent a
// different delete.
func TestModsEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "orig.mods")
	m, err := OpenModLog(path)
	if err != nil {
		t.Fatal(err)
	}
	dels := []storage.Delete{
		{SeriesID: "s1", Version: 1, Start: 10, End: 20},
		{SeriesID: "s2", Version: 2, Start: -5, End: 5},
	}
	for _, d := range dels {
		if err := m.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.mods")
	for pos := 0; pos < len(raw); pos++ {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xFF
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at byte %d: %v", pos, r)
				}
			}()
			ml, err := OpenModLog(flipped)
			if err != nil {
				return
			}
			defer ml.Close()
			for _, got := range ml.All() {
				found := false
				for _, want := range dels {
					if got == want {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("byte %d: invented delete %v", pos, got)
				}
			}
		}()
	}
}

// genSeries is shared with tsfile_test.go.
var _ = func() series.Series { return genSeries(1, 1) }
