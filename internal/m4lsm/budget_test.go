package m4lsm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// budgetSnapshot builds a snapshot whose chunks are all split by the query
// spans, so every chunk genuinely needs loading (BP/TP bounds must be
// resolved by materializing). The deletes force FP/LP loads too.
func budgetSnapshot(t *testing.T) (*storage.Snapshot, m4.Query) {
	t.Helper()
	chunks := map[storage.Version]series.Series{}
	for v := storage.Version(1); v <= 6; v++ {
		var s series.Series
		base := int64(v-1) * 50
		for i := int64(0); i < 60; i++ {
			s = append(s, series.Point{T: base + i, V: float64((base + i) % 23)})
		}
		chunks[v] = s
	}
	snap := buildSnapshot(t, chunks, []storage.Delete{{SeriesID: "s", Start: 3, End: 5, Version: 100}})
	snap.Warnings = &storage.Warnings{}
	q := m4.Query{Tqs: 0, Tqe: 310, W: 7}
	return snap, q
}

// TestBudgetGenerousEqualsUnbudgeted: a budget the query fits inside must
// not change the answer at all — bit-for-bit, warning-free.
func TestBudgetGenerousEqualsUnbudgeted(t *testing.T) {
	snap, q := budgetSnapshot(t)
	want, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	snap2, _ := budgetSnapshot(t)
	b := govern.NewBudget(govern.Limits{MaxChunks: 1 << 20, MaxPoints: 1 << 30, Timeout: time.Hour})
	got, err := ComputeContext(context.Background(), snap2, q, Options{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, want, "generous budget")
	if n := snap2.Warnings.Len(); n != 0 {
		t.Fatalf("generous budget produced %d warnings: %v", n, snap2.Warnings.List())
	}
	if chunks, points := b.Used(); chunks == 0 || points == 0 {
		t.Fatalf("budget not charged (chunks=%d points=%d)", chunks, points)
	}
}

// TestBudgetExhaustionDegrades: a budget too small for the query degrades
// it like unreadable chunks — warnings, no error, no quarantine — in
// lenient mode, and fails typed in strict mode.
func TestBudgetExhaustionDegrades(t *testing.T) {
	snap, q := budgetSnapshot(t)
	quarantined := 0
	snap.OnQuarantine = func(storage.ChunkMeta, error) { quarantined++ }
	b := govern.NewBudget(govern.Limits{MaxChunks: 2})
	if _, err := ComputeContext(context.Background(), snap, q, Options{Budget: b}); err != nil {
		t.Fatalf("lenient budgeted query must degrade, not fail: %v", err)
	}
	if snap.Warnings.Len() == 0 {
		t.Fatal("no warnings despite exhausted budget")
	}
	for _, w := range snap.Warnings.List() {
		if strings.Contains(w, "unreadable") {
			t.Fatalf("budget refusal reported as unreadable chunk: %q", w)
		}
	}
	if quarantined != 0 {
		t.Fatalf("budget refusal quarantined %d chunks", quarantined)
	}

	snap2, _ := budgetSnapshot(t)
	_, err := ComputeContext(context.Background(), snap2, q, Options{Strict: true, Budget: govern.NewBudget(govern.Limits{MaxChunks: 2})})
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("strict budgeted query: got %v, want ErrBudgetExceeded", err)
	}
	var be *govern.BudgetError
	if !errors.As(err, &be) || be.Kind != "chunks" {
		t.Fatalf("error does not carry a chunks BudgetError: %v", err)
	}
}

// TestBudgetPointLimitUDF: the UDF baseline honours the same budget through
// mergeread.
func TestBudgetPointLimitUDF(t *testing.T) {
	snap, q := budgetSnapshot(t)
	if _, err := m4udf.ComputeContext(context.Background(), snap, q, m4udf.Options{
		Budget: govern.NewBudget(govern.Limits{MaxPoints: 100}),
	}); err != nil {
		t.Fatalf("lenient budgeted UDF query must degrade, not fail: %v", err)
	}
	if snap.Warnings.Len() == 0 {
		t.Fatal("no warnings despite exhausted point budget")
	}
	snap2, _ := budgetSnapshot(t)
	_, err := m4udf.ComputeContext(context.Background(), snap2, q, m4udf.Options{
		Strict: true,
		Budget: govern.NewBudget(govern.Limits{MaxPoints: 100}),
	})
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("strict budgeted UDF query: got %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetDeadlineStrictAborts: an already-expired budget deadline fails
// a strict query at the first task boundary with the typed error.
func TestBudgetDeadlineStrictAborts(t *testing.T) {
	snap, q := budgetSnapshot(t)
	b := govern.NewBudget(govern.Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := ComputeContext(context.Background(), snap, q, Options{Strict: true, Budget: b})
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("strict expired-deadline query: got %v, want ErrBudgetExceeded", err)
	}
}

// TestDeadlineRaceNoLeak races context.DeadlineExceeded against task
// completion in the span×G worker pool across a sweep of timeouts: some
// runs finish, some are cut mid-wave. Whatever the outcome, ComputeContext
// must return only after every worker has joined — the stats counters are
// final (no late increments) and no goroutine outlives its query.
func TestDeadlineRaceNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Allow the runtime a moment to retire exiting goroutines.
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("goroutine leak: %d before, %d after deadline races", before, n)
		}
	})

	// A delaying source gives the deadline loads to land in the middle of.
	snap, _ := slowSnapshot(t, 12, 200*time.Microsecond)
	q := m4.Query{Tqs: 0, Tqe: 240, W: 7}
	want, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 40; i++ {
		timeout := time.Duration(i) * 150 * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		got, err := ComputeContext(ctx, snap, q, Options{Parallelism: 8})
		cancel()
		switch {
		case err == nil:
			assertEquivalent(t, got, want, "completed under deadline")
		case errors.Is(err, context.DeadlineExceeded):
			// Cut mid-wave: fine, as long as the pool joined. Counters
			// must be final — any further movement means a straggler.
			s1 := snap.Stats.Load()
			runtime.Gosched()
			time.Sleep(2 * time.Millisecond)
			if s2 := snap.Stats.Load(); s1 != s2 {
				t.Fatalf("run %d: stats moved after ComputeContext returned:\n %+v\n-> %+v", i, s1, s2)
			}
		default:
			t.Fatalf("run %d: unexpected error: %v", i, err)
		}
	}
}
