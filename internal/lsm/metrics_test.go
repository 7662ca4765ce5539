package lsm

import (
	"strings"
	"testing"

	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// TestEngineMetricsExposition: an engine opened with a registry reports its
// write/flush/compact/delete activity and cache state through Prometheus
// exposition, which is what /metrics serves.
func TestEngineMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := Open(Options{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 100; i++ {
		if err := e.Write("s", series.Point{T: int64(i), V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		if err := e.Write("s", series.Point{T: int64(i), V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("s", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"# TYPE lsm_points_written_total counter",
		"lsm_points_written_total 200",
		"lsm_flushes_total 2",
		"lsm_flushed_points_total 200",
		"lsm_deletes_total 1",
		"lsm_compactions_total 1",
		"# TYPE lsm_flush_seconds histogram",
		"lsm_flush_seconds_count 2",
		"lsm_compact_seconds_count 1",
		// Pyramid upkeep is timed apart from the flush: one rebuild per
		// Flush, one for the delete Compact's flush finds stale, and one
		// manifest save per explicit checkpoint.
		"# TYPE lsm_pyramid_rebuild_seconds histogram",
		"lsm_pyramid_rebuild_seconds_count 3",
		"# TYPE lsm_pyramid_save_seconds histogram",
		"lsm_pyramid_save_seconds_count 3",
		"lsm_pyramid_saves_total 3",
		"# TYPE lsm_chunks gauge",
		"lsm_wal_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The JSON snapshot view carries the same values.
	snap := reg.Snapshot()
	if v, ok := snap["lsm_flushes_total"].(int64); !ok || v != 2 {
		t.Errorf("snapshot lsm_flushes_total = %v", snap["lsm_flushes_total"])
	}
	if v, ok := snap["lsm_wal_appends_total"].(int64); !ok || v < 1 {
		t.Errorf("snapshot lsm_wal_appends_total = %v", snap["lsm_wal_appends_total"])
	}
}

// TestEngineNoRegistry: an engine without a registry takes the nil-metrics
// fast path everywhere — this simply must not panic.
func TestEngineNoRegistry(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Metrics() != nil {
		t.Error("Metrics() should be nil without a registry")
	}
	for i := 0; i < 50; i++ {
		if err := e.Write("s", series.Point{T: int64(i), V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
}
