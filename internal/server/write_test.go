package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// newWriteServer serves a fresh engine built with opts (Dir and Metrics are
// filled in) under cfg, returning the server and the engine for direct
// inspection.
func newWriteServer(t *testing.T, cfg Config, opts lsm.Options) (*httptest.Server, *lsm.Engine) {
	t.Helper()
	opts.Dir = t.TempDir()
	opts.Metrics = obs.NewRegistry()
	e, err := lsm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(e, cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e.Close()
	})
	return srv, e
}

func postWrite(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/write", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestWriteEndpointIngests(t *testing.T) {
	srv, e := newWriteServer(t, Config{}, lsm.Options{})
	body := "# sensor dump\nroot.a 10 1.5\nroot.b 20 -2\n\nroot.a 30 3e2\n"
	resp := postWrite(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var res struct {
		Points int `json:"points"`
		Series int `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Points != 3 || res.Series != 2 {
		t.Fatalf("response = %+v, want 3 points / 2 series", res)
	}
	// The response promised durability: the points must be in the engine.
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	snap, err := e.Snapshot("root.a", full)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for _, c := range snap.Chunks {
		data, err := c.Load(snap.Stats)
		if err != nil {
			t.Fatal(err)
		}
		got += data.Len()
	}
	if got != 2 {
		t.Fatalf("root.a holds %d points, want 2", got)
	}
}

func TestWriteRejectsMalformed(t *testing.T) {
	srv, _ := newWriteServer(t, Config{}, lsm.Options{})
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"comments only", "# nothing\n\n"},
		{"two fields", "root.a 10\n"},
		{"four fields", "root.a 10 1 2\n"},
		{"bad timestamp", "root.a ten 1\n"},
		{"bad value", "root.a 10 one\n"},
		{"NaN", "root.a 10 NaN\n"},
		{"Inf", "root.a 10 +Inf\n"},
		{"negative Inf", "root.a 10 -Inf\n"},
		{"reserved timestamp", "root.a 9223372036854775807 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postWrite(t, srv.URL, tc.body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("body %q: status %d, want 400", tc.body, resp.StatusCode)
			}
		})
	}
	// Line-splitting edges: each answers as the reference parser does,
	// with its error text when it rejects.
	edges := []struct {
		name, body string
		status     int
	}{
		{"CRLF", "root.a 1 1\r\nroot.b 2 2\r\n", http.StatusOK},
		{"NBSP and NEL", "root.a\u00a01\u00852\n\u00a0# comment\n", http.StatusOK},
		{"lone 0xA0 byte", "root.a\xa01 1\n", http.StatusBadRequest},
		{"1023-byte line", writeLine(maxWriteLineBytes-1) + "\n", http.StatusOK},
		{"1024-byte line", writeLine(maxWriteLineBytes) + "\n", http.StatusBadRequest},
		{"1025-byte line", writeLine(maxWriteLineBytes+1) + "\n", http.StatusBadRequest},
		{"no final newline", "root.a 1 1\nroot.a 2 2", http.StatusOK},
		{"bad line after a long one", "root.a 1 1\nroot.a 2\n" + writeLine(maxWriteLineBytes) + "\n", http.StatusBadRequest},
	}
	for _, tc := range edges {
		t.Run(tc.name, func(t *testing.T) {
			resp := postWrite(t, srv.URL, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			_, _, refErr := refParse(tc.body)
			if (refErr == nil) != (tc.status == http.StatusOK) {
				t.Fatalf("reference parser disagrees: %v", refErr)
			}
			if refErr == nil {
				return
			}
			var got struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if want := refErrorText(refErr); got.Error != want {
				t.Fatalf("error %q, want %q", got.Error, want)
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/write")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /write: status %d, want 405", resp.StatusCode)
	}
}

// TestWriteBodyBounds: the body cap and the per-line cap both answer 400,
// never a 500 or a hang.
func TestWriteBodyBounds(t *testing.T) {
	srv, _ := newWriteServer(t, Config{MaxBodyBytes: 256}, lsm.Options{})
	big := strings.Repeat("root.a 1 1\n", 200)
	resp := postWrite(t, srv.URL, big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
	// The per-line cap rejects independently of the body cap.
	srv2, _ := newWriteServer(t, Config{}, lsm.Options{})
	longLine := "root." + strings.Repeat("x", 2*maxWriteLineBytes) + " 1 1\n"
	resp = postWrite(t, srv2.URL, longLine)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("long line: status %d, want 400", resp.StatusCode)
	}
}

// TestScrapesDoNotWaitForWriters parks a write at ingest.drain, where it
// holds the engine lock, and requires a registry snapshot, GET /metrics and
// Info to answer within a bounded wait: the engine's state gauges and Info
// read the counts the engine publishes, never its lock.
func TestScrapesDoNotWaitForWriters(t *testing.T) {
	checkNoGoroutineLeak(t)
	parked, release := make(chan struct{}), make(chan struct{})
	var park atomic.Bool
	hook := func(site string) error {
		if site == "ingest.drain" && park.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return nil
	}
	srv, e := newWriteServer(t, Config{}, lsm.Options{StepHook: hook})
	resp := postWrite(t, srv.URL, "root.a 1 1\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first write: status %d", resp.StatusCode)
	}
	park.Store(true)
	written := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader("root.a 2 2\n"))
		if err != nil {
			written <- -1
			return
		}
		resp.Body.Close()
		written <- resp.StatusCode
	}()
	<-parked
	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s waited for the write holding the engine lock", what)
		}
	}
	within("Registry.Snapshot", func() error {
		if n := e.Metrics().Snapshot()["lsm_memtable_points"]; n != 1.0 {
			return fmt.Errorf("lsm_memtable_points = %v, want 1", n)
		}
		return nil
	})
	within("GET /metrics", func() error {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && !bytes.Contains(body, []byte("lsm_chunks ")) {
			err = fmt.Errorf("no lsm_chunks in %d bytes", len(body))
		}
		return err
	})
	within("Info", func() error {
		if info := e.Info(); info.MemtablePoints != 1 {
			return fmt.Errorf("MemtablePoints = %d, want 1", info.MemtablePoints)
		}
		return nil
	})
	close(release)
	if code := <-written; code != http.StatusOK {
		t.Fatalf("parked write finished with %d", code)
	}
	if info := e.Info(); info.MemtablePoints != 2 {
		t.Fatalf("MemtablePoints = %d after the parked write, want 2", info.MemtablePoints)
	}
}

// TestWriteOverloadTorture floods /write over an engine with a
// deliberately tiny ingest queue, /write's only admission control. Every
// response is 200 or 429 with Retry-After and X-M4-Error: backpressure —
// never a 500 or a hang — the engine's queue-depth gauge never exceeds its
// configured bound (+ one request of soft-cap slack), and a one-slot query
// gate that sheds at once sheds nothing: overload sheds, it does not
// buffer, and /write never passes the queries' admission. The first drain
// parks until a write has been shed, so every run reaches the 429 path.
func TestWriteOverloadTorture(t *testing.T) {
	checkNoGoroutineLeak(t)
	const queuePoints = 8
	firstShed := make(chan struct{})
	var parkOnce, shedOnce sync.Once
	hook := func(site string) error {
		if site == "ingest.drain" {
			parkOnce.Do(func() {
				select {
				case <-firstShed:
				case <-time.After(10 * time.Second):
				}
			})
			time.Sleep(time.Millisecond) // slow consumer: force queuing
		}
		return nil
	}
	srv, e := newWriteServer(t, Config{QuerySlots: 1, QueryQueueWait: -1},
		lsm.Options{StepHook: hook, IngestQueuePoints: queuePoints,
			IngestEnqueueWait: 20 * time.Millisecond})

	stopSampling := make(chan struct{})
	var maxQueued atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if n := int64(e.Metrics().Snapshot()["lsm_ingest_queue_points"].(float64)); n > maxQueued.Load() {
				maxQueued.Store(n)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const n = 24
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf("root.s%d 1 1\nroot.s%d 2 2\nroot.s%d 3 3\n", i%4, i%4, i%4)
			resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					errCh <- fmt.Errorf("429 without Retry-After")
					return
				}
				if kind := resp.Header.Get("X-M4-Error"); kind != "backpressure" {
					errCh <- fmt.Errorf("429 with X-M4-Error %q, want backpressure", kind)
					return
				}
				shed.Add(1)
				shedOnce.Do(func() { close(firstShed) })
			default:
				errCh <- fmt.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(stopSampling)
	sampler.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ok.Load() == 0 {
		t.Error("no write survived the burst")
	}
	if shed.Load() == 0 {
		t.Error("no write was shed: the ingest queue's 429 path was never reached")
	}
	if got := ok.Load() + shed.Load(); got != n {
		t.Errorf("accounted for %d of %d requests", got, n)
	}
	// Soft cap: one oversized request may land on a queue just under the
	// cap, so the observable bound is cap + largest request (3 points).
	if m := maxQueued.Load(); m > queuePoints+3 {
		t.Errorf("queue depth reached %d, bound is %d", m, queuePoints+3)
	}
	if counted := varzNumber(t, srv.URL, "http_shed_total"); counted != 0 {
		t.Errorf("http_shed_total = %v after a write flood, want 0", counted)
	}
	t.Logf("burst: %d ok, %d shed, max queue depth %d", ok.Load(), shed.Load(), maxQueued.Load())
}

// TestWriteBackpressure429 drives the engine-level typed backpressure (as
// opposed to gate-level shedding) to the HTTP surface: a full ingest queue
// with fail-fast enqueue answers 429 + X-M4-Error: backpressure.
func TestWriteBackpressure429(t *testing.T) {
	checkNoGoroutineLeak(t)
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
	srv, _ := newWriteServer(t, Config{},
		lsm.Options{StepHook: hook, IngestQueuePoints: 1, IngestEnqueueWait: -1})

	done := make(chan *http.Response, 3)
	post := func(body string) {
		resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			resp = &http.Response{Body: io.NopCloser(strings.NewReader(""))}
		}
		resp.Body.Close()
		done <- resp
	}
	go post("root.a 1 1\n") // takes the engine lock and its own request, then parks
	<-drainEntered
	// Two more writes race for the one-point queue: the first to enqueue
	// fills it and waits for the lock the parked write holds, the other
	// overflows. Neither can be drained before release.
	go post("root.b 2 2\n")
	go post("root.c 3 3\n")
	resp := <-done
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow write: status %d, want 429", resp.StatusCode)
	}
	if kind := resp.Header.Get("X-M4-Error"); kind != "backpressure" {
		t.Errorf("X-M4-Error = %q, want backpressure", kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("backpressure 429 without Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if resp := <-done; resp.StatusCode != http.StatusOK {
			t.Fatalf("parked write %d finished with %d", i, resp.StatusCode)
		}
	}
}

// TestWriteReadOnly503: disk-full degradation surfaces on /write exactly
// like it does on /query — 503 + X-M4-Error: read-only + Retry-After.
func TestWriteReadOnly503(t *testing.T) {
	var diskFull atomic.Bool
	hook := func(site string) error {
		if diskFull.Load() && (strings.HasPrefix(site, "flush.chunk:") || site == "probe.space") {
			return fmt.Errorf("injected: %w", syscall.ENOSPC)
		}
		return nil
	}
	srv, e := newWriteServer(t, Config{},
		lsm.Options{StepHook: hook, SpaceProbeInterval: -1})
	t.Cleanup(func() { diskFull.Store(false) }) // let Close flush cleanly
	for i := 0; i < 20; i++ {
		if err := e.Write("root.s", series.Point{T: int64(i), V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	diskFull.Store(true)
	if err := e.Flush(); err == nil {
		t.Fatal("flush on full disk succeeded")
	}

	resp := postWrite(t, srv.URL, "root.s 100 1\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on read-only engine: status %d, want 503", resp.StatusCode)
	}
	if kind := resp.Header.Get("X-M4-Error"); kind != "read-only" {
		t.Errorf("X-M4-Error = %q, want read-only", kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("read-only 503 without Retry-After")
	}
}

// TestIngestHammerHTTP races direct Engine.Write callers, /write HTTP
// batches and /query readers on one server under -race, then checks the
// engine holds exactly what was acknowledged. One goroutine owns each
// series, so the oracles need no locking.
func TestIngestHammerHTTP(t *testing.T) {
	srv, e := newWriteServer(t, Config{}, lsm.Options{FlushThreshold: 32})

	const nWriters = 3
	type owned struct {
		id   string
		pts  map[int64]float64
		errs []error
	}
	own := make([]*owned, 2*nWriters)
	for i := range own {
		own[i] = &owned{pts: map[int64]float64{}}
	}
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		// Direct engine writer.
		own[w].id = fmt.Sprintf("root.direct%d", w)
		wg.Add(1)
		go func(o *owned, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				tt, v := rng.Int63n(300), float64(rng.Intn(40))
				if err := e.Write(o.id, series.Point{T: tt, V: v}); err != nil {
					o.errs = append(o.errs, err)
					return
				}
				o.pts[tt] = v
			}
		}(own[w], int64(300+w))
		// HTTP /write writer.
		own[nWriters+w].id = fmt.Sprintf("root.http%d", w)
		wg.Add(1)
		go func(o *owned, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				var b strings.Builder
				batch := map[int64]float64{}
				for j := 0; j < 4; j++ {
					tt, v := rng.Int63n(300), float64(rng.Intn(40))
					batch[tt] = v
					fmt.Fprintf(&b, "%s %d %g\n", o.id, tt, v)
				}
				resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(b.String()))
				if err != nil {
					o.errs = append(o.errs, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					o.errs = append(o.errs, fmt.Errorf("status %d", resp.StatusCode))
					return
				}
				// Later lines overwrite earlier ones at the same t; the map
				// already models that.
				for tt, v := range batch {
					o.pts[tt] = v
				}
			}
		}(own[nWriters+w], int64(400+w))
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
			resp, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape("SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 300 GROUP BY SPANS(5) USING LSM"))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for _, o := range own {
		for _, err := range o.errs {
			t.Errorf("series %s: %v", o.id, err)
		}
		snap, err := e.Snapshot(o.id, full)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]float64{}
		for _, c := range snap.Chunks {
			data, err := c.Load(snap.Stats)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range data.Points() {
				got[p.T] = p.V
			}
		}
		if len(got) != len(o.pts) {
			t.Errorf("series %s: %d points, want %d", o.id, len(got), len(o.pts))
		}
	}
}

// writeLine is a valid /write line of exactly n bytes before its newline.
func writeLine(n int) string {
	const tail = " 1 1"
	return "s" + strings.Repeat("x", n-1-len(tail)) + tail
}

// FuzzWriteBody is a differential check: on every input the in-place
// parser must agree with refParseWriteBody, the line-by-line parser it
// replaced — accept or reject, the same error text, the same entries in the
// same order with bit-identical points, the same total. On top of that, an
// accepted body never carries a non-finite point or an empty series id.
func FuzzWriteBody(f *testing.F) {
	f.Add("root.a 10 1.5\nroot.b 20 -2\n")
	f.Add("# comment\n\nroot.a 1 2\n")
	f.Add("root.a 10\n")
	f.Add("root.a ten 1\n")
	f.Add("root.a 10 NaN\n")
	f.Add("root.a 10 +Inf\n")
	f.Add("root.a 9223372036854775807 1e308\n")
	f.Add(strings.Repeat("s 1 1\n", 1000))
	f.Add("s " + strings.Repeat("9", 400) + " 1\n")
	f.Add("\x00\xff\nroot.a 1 1\n")
	f.Add("root.a 1 1\r\nroot.b 2 2\r\n\r\n")
	f.Add("root.a\u00a01\u00a01\n\u00a0# nbsp comment\n")
	f.Add("root.a\u00851 1\u2003\n")
	f.Add("root.a\xa01 1\n")
	f.Add(writeLine(maxWriteLineBytes-1) + "\n")
	f.Add(writeLine(maxWriteLineBytes) + "\n")
	f.Add(writeLine(maxWriteLineBytes+1) + "\n")
	f.Add(writeLine(maxWriteLineBytes - 1))
	f.Add("root.a 1 1\nroot.b 2 2")
	f.Fuzz(func(t *testing.T, body string) {
		want, wantTotal, wantErr := refParse(body)
		b := getWriteBatch()
		defer b.release()
		b.body.Reset()
		b.body.WriteString(body)
		err := b.parse()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("in-place error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			if got, want := err.Error(), refErrorText(wantErr); got != want {
				t.Fatalf("error %q, reference %q", got, want)
			}
			return
		}
		if b.total != wantTotal || len(b.entries) != len(want) {
			t.Fatalf("%d points in %d entries, reference %d in %d", b.total, len(b.entries), wantTotal, len(want))
		}
		n := 0
		for i, ent := range b.entries {
			if ent.SeriesID == "" {
				t.Fatal("accepted empty series id")
			}
			if ent.SeriesID != want[i].SeriesID || len(ent.Points) != len(want[i].Points) {
				t.Fatalf("entry %d: %q with %d points, reference %q with %d", i,
					ent.SeriesID, len(ent.Points), want[i].SeriesID, len(want[i].Points))
			}
			for j, p := range ent.Points {
				if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
					t.Fatalf("non-finite value %v passed the parser", p.V)
				}
				if q := want[i].Points[j]; p.T != q.T || math.Float64bits(p.V) != math.Float64bits(q.V) {
					t.Fatalf("entry %d point %d: %v, reference %v", i, j, p, q)
				}
			}
			n += len(ent.Points)
		}
		if n != b.total {
			t.Fatalf("total %d != %d summed points", b.total, n)
		}
	})
}

// BenchmarkWriteParse times the /write parse layer, body reader to batch
// entries, on an ingest_ooo-shaped body: 8 series × 32 lines, millisecond
// timestamps, full-precision values. Allocations per body should be a
// handful per series, not per line.
func BenchmarkWriteParse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var body []byte
	for s := 0; s < 8; s++ {
		for i := 0; i < 32; i++ {
			body = fmt.Appendf(body, "root.ooo.s%d %d %s\n", s, 1700000000000+int64(2*i),
				strconv.FormatFloat(rng.NormFloat64()*100, 'g', -1, 64))
		}
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wb := getWriteBatch()
		if err := wb.readBody(bytes.NewReader(body), int64(len(body))); err != nil {
			b.Fatal(err)
		}
		if err := wb.parse(); err != nil {
			b.Fatal(err)
		}
		if wb.total != 256 || len(wb.entries) != 8 {
			b.Fatalf("%d points in %d entries", wb.total, len(wb.entries))
		}
		wb.release()
	}
}
