package lsm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/series"
)

// TestWriteBatchMatchesWrite ingests the same workload through WriteBatch
// and through point-by-point Write into two engines and requires identical
// query results, before and after a reopen (batched records replay like
// direct ones).
func TestWriteBatchMatchesWrite(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	opts := func(dir string) Options {
		return Options{Dir: dir, FlushThreshold: 16, SyncWAL: true}
	}
	ea, err := Open(opts(dirA))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Open(opts(dirB))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	oracles := map[string]oracle{}
	ids := []string{"s0", "s1", "s2", "s3"}
	for _, id := range ids {
		oracles[id] = oracle{}
	}
	for round := 0; round < 30; round++ {
		var batch []BatchEntry
		for _, id := range ids {
			n := 1 + rng.Intn(6)
			ps := make([]series.Point, n)
			for j := range ps {
				ps[j] = series.Point{T: rng.Int63n(1000), V: float64(rng.Intn(50))}
			}
			batch = append(batch, BatchEntry{SeriesID: id, Points: ps})
			oracles[id].apply(tortureOp{kind: 'w', id: id, pts: ps})
		}
		if err := ea.WriteBatch(batch...); err != nil {
			t.Fatalf("round %d: WriteBatch: %v", round, err)
		}
		for _, ent := range batch {
			if err := eb.Write(ent.SeriesID, ent.Points...); err != nil {
				t.Fatalf("round %d: Write: %v", round, err)
			}
		}
	}

	check := func(phase string, ea, eb *Engine) {
		t.Helper()
		full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
		for _, id := range ids {
			sa, err := ea.Snapshot(id, full)
			if err != nil {
				t.Fatalf("%s: snapshot batched %s: %v", phase, id, err)
			}
			sb, err := eb.Snapshot(id, full)
			if err != nil {
				t.Fatalf("%s: snapshot direct %s: %v", phase, id, err)
			}
			got := materialize(t, sa, full)
			ref := materialize(t, sb, full)
			want := oracles[id].series(id)
			if !seriesEqual(got, want) || !seriesEqual(ref, want) {
				t.Fatalf("%s: series %s: batched %v, direct %v, want %v", phase, id, got, ref, want)
			}
		}
	}
	check("live", ea, eb)

	if err := ea.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eb.Close(); err != nil {
		t.Fatal(err)
	}
	ea2, err := Open(opts(dirA))
	if err != nil {
		t.Fatal(err)
	}
	defer ea2.Close()
	eb2, err := Open(opts(dirB))
	if err != nil {
		t.Fatal(err)
	}
	defer eb2.Close()
	check("reopened", ea2, eb2)
}

func TestWriteBatchValidation(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.WriteBatch(); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := e.WriteBatch(BatchEntry{SeriesID: "s"}); err != nil {
		t.Fatalf("batch of empty entries: %v", err)
	}
	if err := e.WriteBatch(BatchEntry{Points: pts(1, 1)}); err == nil {
		t.Fatal("empty series id accepted")
	}
	if err := e.WriteBatch(BatchEntry{SeriesID: "s", Points: []series.Point{{T: 1, V: math.NaN()}}}); err == nil {
		t.Fatal("NaN accepted")
	}
	// Nothing above may have reached the queues.
	if n := e.ing.queuedPoints(); n != 0 {
		t.Fatalf("queued points = %d after rejected batches", n)
	}
}

// TestIngestBackpressureTyped fills a one-point queue while the first
// caller is parked inside an injected step hook, holding e.mu, and requires
// the overflowing WriteBatch to fail fast with the typed retryable error —
// then requires the parked batches to complete once it resumes.
func TestIngestBackpressureTyped(t *testing.T) {
	drainEntered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(site string) error {
		if site == "ingest.drain" {
			once.Do(func() {
				close(drainEntered)
				<-release
			})
		}
		return nil
	}
	e, err := Open(Options{
		Dir: t.TempDir(), StepHook: hook,
		IngestQueuePoints: 1, IngestEnqueueWait: -1, // fail-fast enqueue
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	errs := make(chan error, 2)
	// Batch 1: its caller is elected drainer, takes e.mu and its own
	// request, then parks in the hook.
	go func() { errs <- e.WriteBatch(BatchEntry{SeriesID: "a", Points: pts(1, 1)}) }()
	<-drainEntered
	// Batch 2: queue is empty again (batch 1 was taken), so this enqueues,
	// brings the queue to its cap and waits for the drainer.
	go func() { errs <- e.WriteBatch(BatchEntry{SeriesID: "b", Points: pts(2, 2)}) }()
	waitFor(t, func() bool { return e.ing.queuedPoints() >= 1 })

	// Batch 3 overflows: typed, immediate backpressure.
	err = e.WriteBatch(BatchEntry{SeriesID: "c", Points: pts(3, 3)})
	if !errors.Is(err, ErrIngestBackpressure) {
		t.Fatalf("overflow: got %v, want ErrIngestBackpressure", err)
	}
	if e.ing.backpressure.Load() == 0 {
		t.Fatal("backpressure counter did not move")
	}
	// lsm_ingest_points_total counts what was queued, not what was offered:
	// batches 1 and 2 got in, the shed batch 3 did not.
	if got := e.ing.pointsIn.Load(); got != 2 {
		t.Fatalf("ingested points = %d after two queued and one shed batch, want 2", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked batch %d: %v", i, err)
		}
	}
	// The shed batch must not have left anything behind.
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	snap, err := e.Snapshot("c", full)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, full); len(got) != 0 {
		t.Fatalf("shed batch leaked points: %v", got)
	}
}

// TestIngestGoroutineLeak pins that writes leave no goroutine behind: the
// engine starts none, so none is left once Close returns.
func TestIngestGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBatch(BatchEntry{SeriesID: "s", Points: pts(1, 1, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestIngestCloseWhileEnqueueing races Close against a swarm of WriteBatch
// callers: every call must return (success or a closed/backpressure error),
// nothing may hang, and whatever was acknowledged must be durable.
func TestIngestCloseWhileEnqueueing(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, FlushThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var acked [writers][]series.Point
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			id := fmt.Sprintf("s%d", w)
			for i := 0; ; i++ {
				ps := []series.Point{{T: int64(i * 2), V: float64(i)}}
				err := e.WriteBatch(BatchEntry{SeriesID: id, Points: ps})
				if err != nil {
					if errors.Is(err, ErrIngestBackpressure) {
						continue
					}
					return // engine closed underneath us: fine, stop
				}
				acked[w] = append(acked[w], ps...)
			}
		}(w)
	}
	close(start)
	waitFor(t, func() bool { return e.ing.batches.Load() > 0 })
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for w := 0; w < writers; w++ {
		snap, err := e2.Snapshot(fmt.Sprintf("s%d", w), full)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, snap, full)
		if !seriesEqual(got, acked[w]) {
			t.Fatalf("writer %d: recovered %d points, acked %d (%v vs %v)",
				w, len(got), len(acked[w]), got, acked[w])
		}
	}
}

// TestIngestConcurrentHammer is the soak-gate stress: batched writers,
// point writers and M4 readers racing on one engine under -race, with
// an exact oracle check after quiescing. (One goroutine owns each series,
// so the oracles need no locking.)
func TestIngestConcurrentHammer(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nWriters = 4
	oracles := make([]oracle, 2*nWriters)
	for i := range oracles {
		oracles[i] = oracle{}
	}
	errCh := make(chan error, 2*nWriters+1)
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		// A batched writer and a point writer per pair of series.
		writers.Add(2)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			id := fmt.Sprintf("batch%d", w)
			for i := 0; i < 60; i++ {
				n := 1 + rng.Intn(8)
				ps := make([]series.Point, n)
				for j := range ps {
					ps[j] = series.Point{T: rng.Int63n(400), V: float64(rng.Intn(30))}
				}
				if err := e.WriteBatch(BatchEntry{SeriesID: id, Points: ps}); err != nil {
					errCh <- err
					return
				}
				oracles[w].apply(tortureOp{kind: 'w', id: id, pts: ps})
			}
		}(w)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			id := fmt.Sprintf("point%d", w)
			for i := 0; i < 60; i++ {
				p := series.Point{T: rng.Int63n(400), V: float64(rng.Intn(30))}
				if err := e.Write(id, p); err != nil {
					errCh <- err
					return
				}
				oracles[nWriters+w].apply(tortureOp{kind: 'w', id: id, pts: []series.Point{p}})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := m4.Query{Tqs: 0, Tqe: 512, W: 8}
			for _, id := range e.SeriesIDs() {
				snap, err := e.Snapshot(id, q.Range())
				if err != nil {
					errCh <- err
					return
				}
				if _, err := m4lsm.Compute(snap, q); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for i, o := range oracles {
		id := fmt.Sprintf("batch%d", i)
		if i >= nWriters {
			id = fmt.Sprintf("point%d", i-nWriters)
		}
		snap, err := e.Snapshot(id, full)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, snap, full)
		if !seriesEqual(got, o.series(id)) {
			t.Fatalf("series %s: got %v, want %v", id, got, o.series(id))
		}
	}
}

// TestWALGroupCommitConcurrent drives many concurrent Write callers with
// SyncWAL on and requires (a) full durability across a kill+reopen and (b)
// fewer groups than records — i.e. commits actually amortized.
func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, SyncWAL: true, FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", w)
			for i := 0; i < perWriter; i++ {
				if err := e.Write(id, series.Point{T: int64(i), V: float64(w)}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := e.wal.Stats()
	records, groups := st.Records, st.Groups
	if records != writers*perWriter {
		t.Fatalf("records = %d, want %d", records, writers*perWriter)
	}
	if groups > records {
		t.Fatalf("groups = %d > records = %d", groups, records)
	}
	e.Kill() // ack ⇒ synced: everything must survive an abrupt kill

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for w := 0; w < writers; w++ {
		snap, err := e2.Snapshot(fmt.Sprintf("s%d", w), full)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(materialize(t, snap, full)); got != perWriter {
			t.Fatalf("writer %d: %d points survived, want %d", w, got, perWriter)
		}
	}
}

// TestWriteBatchIsOneGroup: one request is one WAL group. A single caller
// makes 1,000 calls of an 8-entry batch, flushes included, and every call
// adds exactly one group of eight records — no drain ever takes half a
// request.
func TestWriteBatchIsOneGroup(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const calls, perCall = 1000, 8
	entries := make([]BatchEntry, perCall)
	before := e.wal.Stats()
	for i := 0; i < calls; i++ {
		for j := range entries {
			entries[j] = BatchEntry{SeriesID: fmt.Sprintf("s%d", j), Points: pts(int64(4*i), 1, int64(4*i+1), 2, int64(4*i+2), 3)}
		}
		if err := e.WriteBatch(entries...); err != nil {
			t.Fatal(err)
		}
	}
	st := e.wal.Stats()
	if g, r := st.Groups-before.Groups, st.Records-before.Records; g != calls || r != calls*perCall {
		t.Fatalf("%d calls of %d entries made %d groups of %d records, want %d groups", calls, perCall, g, r, calls)
	}
	if e.Info().Files == 0 {
		t.Fatal("setup: no flush ran between the calls")
	}
}

// TestQueuedWritersShareAGroup: group commit needs no append worker.
// The first caller parks at ingest.drain while it holds e.mu; eight
// single-entry writers queue behind it. Once it is released, its own run is
// one group and the next drainer commits all eight queued requests as the
// second.
func TestQueuedWritersShareAGroup(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(site string) error {
		if site == "ingest.drain" {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return nil
	}
	e, err := Open(Options{Dir: t.TempDir(), SyncWAL: true, StepHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const queued = 8
	errs := make(chan error, queued+1)
	go func() { errs <- e.Write("first", series.Point{T: 1, V: 1}) }()
	<-parked
	for i := 0; i < queued; i++ {
		go func(i int) { errs <- e.Write(fmt.Sprintf("s%d", i), series.Point{T: int64(i), V: 1}) }(i)
	}
	// The lsm_ingest_queue_points gauge's source, read directly.
	waitFor(t, func() bool { return e.ing.queuedPoints() == queued })
	close(release)
	for i := 0; i < queued+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st := e.wal.Stats(); st.Groups != 2 || st.Records != queued+1 {
		t.Fatalf("%d acknowledged writes made %d groups of %d records, want 2 groups", queued+1, st.Groups, st.Records)
	}
}

// TestResolvedWriterReturnsWithoutEngineLock: a caller whose request
// another drainer applied returns at once, while that drainer still holds
// e.mu — it is woken with its outcome, not made to wait for the lock
// behind the next group's fsync. The test plays the drainer itself: it
// holds e.mu, marks the election taken and drains the queued request.
func TestResolvedWriterReturnsWithoutEngineLock(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.mu.Lock()
	e.ing.mu.Lock()
	e.ing.draining = true
	e.ing.mu.Unlock()
	errs := make(chan error, 1)
	go func() { errs <- e.Write("a", series.Point{T: 1, V: 1}) }()
	waitFor(t, func() bool { return e.ing.queuedPoints() == 1 })
	if !e.drain() {
		t.Fatal("the queued request was not drained")
	}
	returned := false
	select {
	case err := <-errs:
		returned = true
		if err != nil {
			t.Errorf("resolved write: %v", err)
		}
	case <-time.After(10 * time.Second):
	}
	e.ing.stepDown()
	e.mu.Unlock()
	if !returned {
		t.Fatal("a resolved writer waited while the drainer held e.mu")
	}
	if st := e.wal.Stats(); st.Groups != 1 || st.Records != 1 {
		t.Fatalf("%d groups of %d records, want 1 of 1", st.Groups, st.Records)
	}
}

// TestENOSPCRetireFlipsReadOnly is the regression for the classify bug:
// ENOSPC surfacing from the post-flush WAL-retire / pyrSave tail of
// Write (and Flush) must flip the engine read-only with the typed error,
// exactly like ENOSPC during the flush itself.
func TestENOSPCRetireFlipsReadOnly(t *testing.T) {
	for _, site := range []string{"wal.retire", "pyramid.save"} {
		t.Run(site, func(t *testing.T) {
			var diskFull atomic.Bool
			hook := func(s string) error {
				if diskFull.Load() && (s == site || s == "probe.space") {
					return fmt.Errorf("injected: %w", syscall.ENOSPC)
				}
				return nil
			}
			e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 4,
				StepHook: hook, SpaceProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			diskFull.Store(true)
			// Crossing the threshold auto-flushes inside Write; the flush
			// succeeds and the post-flush tail hits the injected ENOSPC.
			err = e.Write("s", pts(1, 1, 2, 2, 3, 3, 4, 4)...)
			if !errors.Is(err, ErrReadOnly) {
				t.Fatalf("write over full disk at %s: got %v, want ErrReadOnly", site, err)
			}
			if ro, _ := e.ReadOnly(); !ro {
				t.Fatalf("engine not read-only after ENOSPC at %s", site)
			}
			diskFull.Store(false)
		})
	}
}

// waitFor polls cond (10ms cadence, 5s budget) — test-only helper.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWriteBatchKeepsNoCallerSlices pins WriteBatch's ownership rule, which
// the HTTP /write handler relies on to recycle its parse buffers: once the
// call returns, accepted or refused, the engine never reads the caller's
// entries or points again. Every batch reuses one point buffer, which is
// overwritten right after each call; the memtable, the flushed chunks and
// the WAL (through a kill and replay) must hold what was written, and under
// -race a late read by a later drain would be reported as a race.
func TestWriteBatchKeepsNoCallerSlices(t *testing.T) {
	dir := t.TempDir()
	var refuse atomic.Bool
	hook := func(site string) error {
		if refuse.Load() && site == "wal.append" {
			return errors.New("injected: refused")
		}
		return nil
	}
	e, err := Open(Options{Dir: dir, FlushThreshold: 48, SyncWAL: true, StepHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	o := oracle{}
	buf := make([]series.Point, 8)
	entries := make([]BatchEntry, 2)
	for round := 0; round < 20; round++ {
		for j := range buf {
			buf[j] = series.Point{T: int64(8*round + j), V: float64(round)}
		}
		entries[0] = BatchEntry{SeriesID: "a", Points: buf[:4]}
		entries[1] = BatchEntry{SeriesID: "b", Points: buf[4:]}
		refuse.Store(round%5 == 4)
		err := e.WriteBatch(entries...)
		if refuse.Load() != (err != nil) {
			t.Fatalf("round %d: WriteBatch = %v with refusal %v", round, err, refuse.Load())
		}
		if err == nil {
			for _, ent := range entries {
				o.apply(tortureOp{kind: 'w', id: ent.SeriesID, pts: slices.Clone(ent.Points)})
			}
		}
		for j := range buf {
			buf[j] = series.Point{T: -1, V: -1}
		}
		entries[0], entries[1] = BatchEntry{SeriesID: "scribbled"}, BatchEntry{}
	}
	refuse.Store(false)
	check := func(phase string, e *Engine) {
		t.Helper()
		full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
		for _, id := range []string{"a", "b"} {
			snap, err := e.Snapshot(id, full)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := materialize(t, snap, full), o.series(id); !seriesEqual(got, want) {
				t.Fatalf("%s: series %s holds %v, want %v", phase, id, got, want)
			}
		}
		if e.HasSeries("scribbled") {
			t.Fatalf("%s: a scribbled entry reached the engine", phase)
		}
	}
	check("live", e)
	e.Kill()
	e, err = Open(Options{Dir: dir, FlushThreshold: 48, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	check("replayed", e)
}
