package govern

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPool covers the pool's contract: every task runs exactly once on a
// worker below par, par <= 1 runs inline as worker 0, a failure stops the
// pool early, and the error returned is the lowest-index task's whatever
// the schedule.
func TestRunPool(t *testing.T) {
	for _, par := range []int{0, 1, 2, 4, 16} {
		const n = 100
		hits := make([]int32, n)
		var badWorker atomic.Bool
		err := RunPool(par, n, func(w, i int) error {
			if w < 0 || w >= max(par, 1) {
				badWorker.Store(true)
			}
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil || badWorker.Load() {
			t.Fatalf("par %d: err %v, worker out of range %v", par, err, badWorker.Load())
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("par %d: task %d ran %d times", par, i, h)
			}
		}
	}

	t.Run("early-stop", func(t *testing.T) {
		boom := errors.New("boom")
		// Inline, nothing runs after the failed task.
		ran := 0
		if err := RunPool(1, 100, func(_, i int) error {
			ran++
			if i == 10 {
				return boom
			}
			return nil
		}); err != boom || ran != 11 {
			t.Fatalf("par 1: err %v after %d tasks, want boom after 11", err, ran)
		}
		// Pooled, task 0 fails at once while every other task takes a
		// millisecond: a pool that kept going would run all thousand.
		const n = 1000
		var started atomic.Int32
		if err := RunPool(4, n, func(_, i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		}); err != boom {
			t.Fatalf("par 4: err %v, want boom", err)
		}
		if s := started.Load(); s >= n/2 {
			t.Fatalf("par 4: %d of %d tasks started after task 0 failed", s, n)
		}
	})

	t.Run("lowest-index-error", func(t *testing.T) {
		// Task 7 fails at once, task 3 only after a pause, so task 7 is
		// usually the first to fail in time; task 3's error must win.
		for _, par := range []int{1, 2, 4, 8} {
			for rep := 0; rep < 20; rep++ {
				err := RunPool(par, 64, func(_, i int) error {
					switch i {
					case 3:
						time.Sleep(2 * time.Millisecond)
						return fmt.Errorf("task %d", i)
					case 7:
						return fmt.Errorf("task %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != "task 3" {
					t.Fatalf("par %d rep %d: err %v, want task 3", par, rep, err)
				}
			}
		}
	})
}
