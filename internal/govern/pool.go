package govern

import (
	"sync"
	"sync/atomic"
)

// RunPool runs tasks 0..n-1 on at most par worker goroutines that pull task
// indexes off one shared counter. It is the repository's one worker pool:
// the M4-LSM waves, the merge-all read's series and chunk loads and the
// UDF span blocks all run on it. run's w
// argument names the worker (0..par-1), so a caller may give each worker
// its own scratch state. par <= 1 runs every task inline on the calling
// goroutine as worker 0.
//
// A failing task stops the pool: no task starts after it, and RunPool
// returns the error of the lowest-index task that failed. That error does
// not depend on the schedule: indexes are handed out in order and a worker
// checks for failure before it takes one, so every task below a failed one
// was taken before it and runs to the end.
func RunPool(par, n int, run func(w, i int) error) error {
	par = min(par, n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := run(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = n
		first  error
	)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(w, i); err != nil {
					mu.Lock()
					if i < errAt {
						errAt, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
