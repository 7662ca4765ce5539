package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// sample is one request's timeline, as offsets from the start of its loop.
type sample struct {
	kind  reqKind
	due   time.Duration // when it was due; a closed loop sends when the previous one completes
	sent  time.Duration // when the generator handed it over
	start time.Duration // when a connection picked it up
	done  time.Duration
	ok    bool
}

// latency runs from the due time, so the wait a stall imposes on the
// requests queued behind it counts.
func (s sample) latency() time.Duration { return s.done - s.due }

// runClosedLoop sends n requests one after the other from a single client.
// do reports whether the request succeeded.
func runClosedLoop(n, firstID int, next func(id int) *request, do func(*request) bool) []sample {
	out := make([]sample, 0, n)
	start := time.Now()
	for id := firstID; id < firstID+n; id++ {
		r := next(id)
		t0 := time.Since(start)
		ok := do(r)
		out = append(out, sample{kind: r.kind, due: t0, sent: t0, start: t0, done: time.Since(start), ok: ok})
	}
	return out
}

// dueAt is when request i of an open loop at rate requests per second is due.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// runOpenLoop sends reqs on a fixed schedule, request i at dueAt(i, rate),
// whatever the server is doing: one scheduler (the caller's goroutine) hands
// each request over when it falls due, and conns workers — one connection
// each — take them in order. The hand-over queue holds the whole schedule,
// so a slow server delays requests, never the scheduler.
func runOpenLoop(reqs []*request, rate float64, conns int, do func(*request) bool) []sample {
	samples := make([]sample, len(reqs))
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.start = time.Since(start)
				s.ok = do(reqs[i])
				s.done = time.Since(start)
			}
		}()
	}
	for i, r := range reqs {
		due := dueAt(i, rate)
		waitUntil(start.Add(due))
		samples[i].kind, samples[i].due, samples[i].sent = r.kind, due, time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// sleepSlack is how much earlier than asked a sleeper wakes to yield its way
// to the instant: on the sandbox a plain time.Sleep overshoots by about a
// millisecond, a tenth of the gap between arrivals at 100 requests a second.
const sleepSlack = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// rung is the verdict on one open-loop run at one rate.
type rung struct {
	rate     float64
	requests int
	failures int
	p95MS    float64
	lag      time.Duration // 95th percentile of how late the generator handed requests over
	backlogS float64       // arrivals still waiting for a connection at the rung's end, in seconds of arrivals
	void     bool          // the generator itself ran late: the rung measured the client
	holds    bool
}

func judgeRung(samples []sample, rate float64) rung {
	r := rung{rate: rate, requests: len(samples)}
	if len(samples) == 0 {
		return r
	}
	end := dueAt(len(samples), rate)
	lat := make([]float64, len(samples))
	lags := make([]float64, len(samples))
	waiting := 0
	for i, s := range samples {
		lat[i] = ms(s.latency())
		lags[i] = float64(s.sent - s.due)
		if !s.ok {
			r.failures++
		}
		if s.start > end {
			waiting++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(lags)
	r.p95MS = percentile(lat, supportedPercentile(len(lat), 0.95))
	r.lag = time.Duration(percentile(lags, 0.95))
	r.backlogS = float64(waiting) / rate
	r.void = float64(r.lag) > maxLagShare*float64(time.Second)/rate
	r.holds = !r.void && r.failures == 0 && r.p95MS <= ladderP95MS && r.backlogS < ladderBacklog
	return r
}

// maxRateOK is the highest rate that holds with every lower rate holding too.
func maxRateOK(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.holds {
			break
		}
		best = r.rate
	}
	return best
}
