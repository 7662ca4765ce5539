// Package govern is the resource-governance layer: per-query budgets
// (chunk loads, decoded points, a wall-clock deadline) and an admission
// gate with a bounded wait queue for the server's query endpoints.
//
// Everything is nil-safe in the style of internal/obs: a nil *Budget
// charges nothing and never trips, a nil *Gate admits everything. Library
// code therefore threads budgets unconditionally and pays one pointer
// check when governance is off.
package govern

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded is the sentinel every budget violation unwraps to.
// Callers branch on errors.Is(err, ErrBudgetExceeded); the concrete
// *BudgetError carries which limit tripped.
var ErrBudgetExceeded = errors.New("query budget exceeded")

// BudgetError reports one tripped limit. It unwraps to ErrBudgetExceeded.
type BudgetError struct {
	Kind  string // "chunks", "points" or "deadline"
	Limit int64  // configured limit (milliseconds for "deadline")
	Used  int64  // observed value when the limit tripped
}

func (e *BudgetError) Error() string {
	if e.Kind == "deadline" {
		return fmt.Sprintf("query budget exceeded: deadline %dms passed (%dms elapsed)", e.Limit, e.Used)
	}
	return fmt.Sprintf("query budget exceeded: %s limit %d reached (%d used)", e.Kind, e.Limit, e.Used)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Limits configures a Budget. Zero fields mean "unlimited" for that axis;
// an all-zero Limits yields a nil Budget from NewBudget.
type Limits struct {
	// MaxChunks bounds chunk loads (full-chunk and time-block loads both
	// count: each is one I/O the metadata pruning failed to avoid).
	MaxChunks int64
	// MaxPoints bounds decoded points across all loads.
	MaxPoints int64
	// Timeout bounds wall-clock time from NewBudget. It is a soft
	// deadline: in non-strict mode the operators stop loading chunks and
	// degrade to metadata-only answers instead of aborting.
	Timeout time.Duration
}

// Merge returns l with any zero field replaced by the corresponding field
// of def — per-statement clauses tighten server defaults without erasing
// them.
func (l Limits) Merge(def Limits) Limits {
	if l.MaxChunks == 0 {
		l.MaxChunks = def.MaxChunks
	}
	if l.MaxPoints == 0 {
		l.MaxPoints = def.MaxPoints
	}
	if l.Timeout == 0 {
		l.Timeout = def.Timeout
	}
	return l
}

// zero reports whether no limit is set.
func (l Limits) zero() bool {
	return l.MaxChunks == 0 && l.MaxPoints == 0 && l.Timeout == 0
}

// Budget is the live accounting state of one query. All methods are safe
// for concurrent use and on a nil receiver (no-ops that never trip).
type Budget struct {
	limits   Limits
	start    time.Time
	deadline time.Time // zero when Timeout is unset

	chunks atomic.Int64
	points atomic.Int64
}

// NewBudget starts a budget clock for one query. An all-zero Limits
// returns nil: the unbudgeted fast path stays a pointer check.
func NewBudget(l Limits) *Budget {
	if l.zero() {
		return nil
	}
	b := &Budget{limits: l, start: time.Now()}
	if l.Timeout > 0 {
		b.deadline = b.start.Add(l.Timeout)
	}
	return b
}

// ChargeChunk accounts one chunk load decoding `points` points, checking
// every configured limit (including the deadline — loads are the slow
// path, so charging them bounds wall-clock too). It returns a
// *BudgetError as soon as a limit would be exceeded; the load must not
// proceed.
func (b *Budget) ChargeChunk(points int64) error {
	if b == nil {
		return nil
	}
	if err := b.CheckDeadline(); err != nil {
		return err
	}
	c := b.chunks.Add(1)
	if b.limits.MaxChunks > 0 && c > b.limits.MaxChunks {
		return &BudgetError{Kind: "chunks", Limit: b.limits.MaxChunks, Used: c}
	}
	p := b.points.Add(points)
	if b.limits.MaxPoints > 0 && p > b.limits.MaxPoints {
		return &BudgetError{Kind: "points", Limit: b.limits.MaxPoints, Used: p}
	}
	return nil
}

// CheckDeadline reports whether the budget's wall-clock deadline has
// passed. Operators call it at task boundaries so a strict query aborts
// promptly instead of queueing more work.
func (b *Budget) CheckDeadline() error {
	if b == nil || b.deadline.IsZero() {
		return nil
	}
	if now := time.Now(); now.After(b.deadline) {
		return &BudgetError{
			Kind:  "deadline",
			Limit: b.limits.Timeout.Milliseconds(),
			Used:  now.Sub(b.start).Milliseconds(),
		}
	}
	return nil
}

// Used returns the chunks and points charged so far (0, 0 on nil).
func (b *Budget) Used() (chunks, points int64) {
	if b == nil {
		return 0, 0
	}
	return b.chunks.Load(), b.points.Load()
}
