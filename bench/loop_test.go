package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func msDuration(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestDueAt(t *testing.T) {
	if got := dueAt(0, 40); got != 0 {
		t.Errorf("dueAt(0) = %v", got)
	}
	if got := dueAt(40, 40); got != time.Second {
		t.Errorf("dueAt(40, 40/s) = %v, want 1s", got)
	}
	if got := dueAt(1, 160); got != 6250*time.Microsecond {
		t.Errorf("dueAt(1, 160/s) = %v, want 6.25ms", got)
	}
}

// A request's latency runs from when it was due, not from when a connection
// got round to it: the wait behind a stalled request counts.
func TestLatencyCountsFromDueTime(t *testing.T) {
	s := sample{due: msDuration(10), sent: msDuration(10), start: msDuration(60), done: msDuration(65)}
	if got := s.latency(); got != msDuration(55) {
		t.Errorf("latency = %v, want 55ms (50 waiting + 5 served)", got)
	}
}

func rungSamples(rate float64, n int, f func(i int, s *sample)) []sample {
	out := make([]sample, n)
	for i := range out {
		due := dueAt(i, rate)
		out[i] = sample{due: due, sent: due, start: due, done: due + msDuration(2), ok: true}
		if f != nil {
			f(i, &out[i])
		}
	}
	return out
}

func TestJudgeRung(t *testing.T) {
	const rate, n = 100.0, 400
	for _, c := range []struct {
		name        string
		mutate      func(i int, s *sample)
		holds, void bool
		check       func(t *testing.T, r rung)
	}{
		{name: "healthy", holds: true},
		{name: "one failure", mutate: func(i int, s *sample) { s.ok = i != 7 }},
		{name: "slow tail", mutate: func(i int, s *sample) {
			if i%10 == 0 { // 10 % at 80 ms puts p95 over the 50 ms limit
				s.done = s.due + msDuration(80)
			}
		}},
		{
			name: "generator late", void: true,
			// 2 ms late on a 10 ms gap is past the 10 % allowed.
			mutate: func(i int, s *sample) { s.sent += msDuration(2); s.start = s.sent; s.done = s.sent + msDuration(2) },
			check: func(t *testing.T, r rung) {
				if r.lag != msDuration(2) {
					t.Errorf("lag = %v, want 2ms", r.lag)
				}
			},
		},
		{
			name: "backlog at the end",
			// The last 150 arrivals are still waiting when the rung ends, 4 s
			// after its start: 1.5 s of arrivals.
			mutate: func(i int, s *sample) {
				if i >= n-150 {
					s.start = msDuration(4010)
					s.done = s.start + msDuration(1)
				}
			},
			check: func(t *testing.T, r rung) {
				if r.backlogS != 1.5 {
					t.Errorf("backlog = %v s, want 1.5", r.backlogS)
				}
			},
		},
	} {
		r := judgeRung(rungSamples(rate, n, c.mutate), rate)
		if r.holds != c.holds || r.void != c.void {
			t.Errorf("%s: holds=%v void=%v, want holds=%v void=%v (%+v)", c.name, r.holds, r.void, c.holds, c.void, r)
		}
		if c.check != nil {
			c.check(t, r)
		}
	}
}

func TestMaxRateOKStopsAtTheFirstRungThatFails(t *testing.T) {
	rungs := []rung{{rate: 60, holds: true}, {rate: 80, holds: true}, {rate: 100}, {rate: 125, holds: true}}
	if got := maxRateOK(rungs); got != 80 {
		t.Errorf("maxRateOK = %v, want 80", got)
	}
	if got := maxRateOK([]rung{{rate: 60}}); got != 0 {
		t.Errorf("maxRateOK with no rung holding = %v, want 0", got)
	}
}

// With one connection and a server that stalls on the first request, the
// open loop keeps its schedule: later requests queue, and their latency
// includes the queueing.
func TestOpenLoopKeepsScheduleBehindAStall(t *testing.T) {
	const rate = 500.0 // 2 ms apart
	reqs := make([]*request, 20)
	for i := range reqs {
		reqs[i] = &request{id: i, kind: kindQuery}
	}
	var served atomic.Int32
	do := func(r *request) bool {
		if r.id == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		served.Add(1)
		return true
	}
	samples := runOpenLoop(reqs, rate, 1, do)
	if int(served.Load()) != len(reqs) || len(samples) != len(reqs) {
		t.Fatalf("served %d, %d samples, want %d", served.Load(), len(samples), len(reqs))
	}
	for i, s := range samples {
		if s.due != dueAt(i, rate) {
			t.Errorf("sample %d due at %v, want %v", i, s.due, dueAt(i, rate))
		}
		if s.sent < s.due || s.start < s.sent || s.done < s.start {
			t.Errorf("sample %d out of order: %+v", i, s)
		}
	}
	// Request 5 was due at 10 ms and cannot start before the stall ends at 30.
	if got := samples[5].latency(); got < 19*time.Millisecond {
		t.Errorf("request queued behind the stall reports %v; the wait from its due time is missing", got)
	}
	if samples[5].sent-samples[5].due > 10*time.Millisecond {
		t.Errorf("the scheduler itself fell %v behind; it must not wait for the server", samples[5].sent-samples[5].due)
	}
}

func TestClosedLoopSendsOneAtATime(t *testing.T) {
	var inFlight, peak atomic.Int32
	do := func(*request) bool {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return true
	}
	next := func(id int) *request { return &request{id: id} }
	samples := runClosedLoop(12, 100, next, do)
	if len(samples) != 12 || peak.Load() != 1 {
		t.Fatalf("%d samples, peak concurrency %d; want 12 samples, one at a time", len(samples), peak.Load())
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].due < samples[i-1].done {
			t.Errorf("request %d sent at %v before request %d completed at %v", i, samples[i].due, i-1, samples[i-1].done)
		}
	}
}
