package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "http.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "lsm.snapshot", Start: 12, End: 20},
		{ID: 4, Parent: 2, Name: "m4lsm.compute", Start: 20, End: 50},
		// Two children that overlap each other (parallel work) ...
		{ID: 5, Parent: 4, Name: "task", Start: 22, End: 40},
		{ID: 6, Parent: 4, Name: "task", Start: 30, End: 48},
		// ... and one that sticks out of its parent by a clock read.
		{ID: 7, Parent: 2, Name: "viz.png_encode", Start: 60, End: 95},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 20,               // 100 − [10, 90)
		2: 80 - 8 - 30 - 30, // children cover [12,20) [20,50) [60,90): the overhang is clipped
		3: 8,
		4: 30 - 26, // [22,48) is covered once, however many children cover it
		5: 18, 6: 18, 7: 35,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Self times of a properly nested request add up to its root's duration.
	nested := spans[:6]
	var sum time.Duration
	for _, d := range selfTimes(nested) {
		sum += d
	}
	if want := time.Duration(100 + (18 + 18 - 26)); sum != want { // the overlap is counted twice
		t.Errorf("sum of self times = %d, want %d", sum, want)
	}
	byName := selfByName(spans)
	if len(byName["task"]) != 2 || byName["lsm.snapshot"][0] != 8 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 1); id != 0 {
		t.Errorf("a nil recorder handed out span id %d", id)
	}
	off.end(0)

	rec := newRecorder()
	root := rec.begin("http.request", 0, 7)
	child := rec.begin("server.handler", root, 7)
	rec.end(child)
	rec.end(root)
	first := rec.all()[root-1].End
	rec.end(root) // a deferred second end must not move the span
	spans := rec.all()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[child-1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[root-1].End != first || spans[root-1].End < spans[child-1].End {
		t.Errorf("root span moved or ends before its child: %+v", spans)
	}
}
