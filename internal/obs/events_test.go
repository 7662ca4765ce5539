package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestEventLogRecordCloseDrain(t *testing.T) {
	l, err := NewEventLog("", 64, 64, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Record(Event{Endpoint: "/query", Status: 200, ElapsedNs: int64(i)})
	}
	// Close drains everything still buffered before stopping the writer.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Written(); got != 10 {
		t.Errorf("Written = %d, want 10 (Close must drain)", got)
	}
	if got := l.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
	recent := l.Recent()
	if len(recent) != 10 {
		t.Fatalf("Recent returned %d events", len(recent))
	}
	// Newest first.
	for i, e := range recent {
		if want := int64(9 - i); e.ElapsedNs != want {
			t.Errorf("Recent[%d].ElapsedNs = %d, want %d", i, e.ElapsedNs, want)
		}
	}
	// Record after Close never blocks and never panics.
	for i := 0; i < 200; i++ {
		l.Record(Event{})
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestEventLogBoundedNeverBlocks(t *testing.T) {
	// After Close the writer goroutine is gone, so the channel fills to its
	// capacity and every further Record must take the drop path — a
	// deterministic probe of the bound (the send path is the same one a slow
	// disk would exercise).
	l, err := NewEventLog("", 4, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			l.Record(Event{Status: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked on a full buffer")
	}
	if got := l.Dropped(); got != 100-4 {
		t.Errorf("Dropped = %d, want %d", got, 100-4)
	}
	if got := l.Recorded(); got != 100 {
		t.Errorf("Recorded = %d, want 100", got)
	}
}

// TestEventLogRingWraps drives both tails through the same ring: each
// input records its events, closes the log, and reads one tail newest
// first. The slow inputs file only events at or above the threshold, and
// fast events recorded after a slow one never push it out of its tail.
func TestEventLogRingWraps(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	cases := []struct {
		name     string
		ringCap  int
		slow     time.Duration
		elapsed  []int64 // recorded in order; each event's Statement is its index
		slowTail bool
		want     []string // the tail's statements, newest first
	}{
		{"recent wraps", 4, 0, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false, []string{"9", "8", "7", "6"}},
		{"recent partial fill", 8, 0, []int64{0, 0}, false, []string{"1", "0"}},
		// A fast event below the threshold, then five slow ones into a
		// slow tail of three.
		{"slow wraps", 3, 10 * time.Millisecond, []int64{ms(1), ms(20), ms(20), ms(20), ms(20), ms(20)}, true, []string{"5", "4", "3"}},
		{"slow partial fill", 8, 0, []int64{0, 0}, true, []string{"1", "0"}},
		{"slow survives fast burst", 4, 10 * time.Millisecond,
			[]int64{ms(1), ms(50), ms(1), ms(1), ms(1), ms(1), ms(1), ms(1)}, true, []string{"1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, err := NewEventLog("", 64, c.ringCap, c.slow, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, ns := range c.elapsed {
				l.Record(Event{Statement: strconv.Itoa(i), ElapsedNs: ns})
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tail := l.Recent()
			if c.slowTail {
				tail = l.Slow()
			}
			var got []string
			for _, e := range tail {
				got = append(got, e.Statement)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("tail = %v, want %v", got, c.want)
			}
		})
	}
}

func TestEventLogJSONLFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := NewEventLog(path, 16, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	l.Record(Event{When: when, RequestID: "req-1", Endpoint: "/query",
		Statement: "SELECT M4(*) FROM s", Status: 200, ElapsedNs: 12345,
		Operator: "lsm", ChunksLoaded: 3, CacheHits: 2, CacheMisses: 1,
		PyramidSpans: 7, TraceID: "tr-1",
		Phases: []PhaseTiming{{Name: "plan", Ns: 100}}})
	l.Record(Event{When: when.Add(time.Second), RequestID: "req-2", Endpoint: "/render", Status: 429, Error: "shed"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("file has %d events, want 2", len(events))
	}
	e := events[0]
	if e.RequestID != "req-1" || e.Statement != "SELECT M4(*) FROM s" ||
		e.ChunksLoaded != 3 || e.CacheHits != 2 || e.PyramidSpans != 7 ||
		e.TraceID != "tr-1" || len(e.Phases) != 1 || e.Phases[0].Name != "plan" {
		t.Errorf("round-trip mismatch: %+v", e)
	}
	if events[1].Status != 429 || events[1].Error != "shed" {
		t.Errorf("second event mismatch: %+v", events[1])
	}

	// Reopening appends whole lines after the existing ones.
	l2, err := NewEventLog(path, 16, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Record(Event{RequestID: "req-3"})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Errorf("file has %d lines after reopen, want 3", lines)
	}
}

func TestEventLogNil(t *testing.T) {
	var l *EventLog
	l.Record(Event{})
	if l.Recent() != nil || l.Slow() != nil || l.SlowThreshold() != 0 || l.Recorded() != 0 || l.Written() != 0 || l.Dropped() != 0 || l.WriteErrors() != 0 {
		t.Error("nil EventLog not inert")
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestEventLogConcurrentRecord(t *testing.T) {
	l, err := NewEventLog("", 1024, 1024, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(Event{Status: w, ElapsedNs: int64(i)})
				if i%10 == 0 {
					l.Recent()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Written() + l.Dropped(); got != writers*per {
		t.Errorf("written+dropped = %d, want %d", got, writers*per)
	}
}

func TestEventLogGoroutineShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		l, err := NewEventLog("", 8, 8, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.Record(Event{})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The writer goroutines must all be gone; allow scheduler noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
