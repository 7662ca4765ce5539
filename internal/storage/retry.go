package storage

import (
	"context"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/series"
)

// RetryPolicy bounds how a retrying chunk source re-reads after transient
// faults. The zero policy (MaxAttempts <= 1) disables retrying.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts, including the
	// first (<= 1 means no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 1ms);
	// MaxDelay caps the exponential growth (default 50ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the deterministic jitter (govern.Backoff), so a retry
	// schedule reproduces exactly under the fault-injection harness.
	Seed uint64
	// IsPermanent reports errors that must not be retried — detected
	// corruption stays corrupt no matter how often it is re-read.
	IsPermanent func(error) bool
	// OnRetry fires before each retry, OnExhausted once when the attempts
	// run out with the read still failing. Both may be nil; both must be
	// safe for concurrent use (they feed metrics counters).
	OnRetry     func()
	OnExhausted func()
}

// retrySource retries transient read faults of the wrapped source. It sits
// below the chunk cache (so only settled reads are cached) and above the
// fault-injection wrapper (so a retry re-draws the fault decision).
type retrySource struct {
	inner ChunkSource
	p     RetryPolicy
}

// WithRetry wraps src with the retry policy; a policy without retries
// returns src unchanged.
func WithRetry(src ChunkSource, p RetryPolicy) ChunkSource {
	if p.MaxAttempts <= 1 {
		return src
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	return &retrySource{inner: src, p: p}
}

// retry runs read up to MaxAttempts times. The backoff sleep is bounded
// and small, so it deliberately runs uncancelled: ChunkSource has no
// context, and the operators re-check theirs at the next task boundary.
func retry[T any](r *retrySource, read func() (T, error)) (T, error) {
	for attempt := 1; ; attempt++ {
		out, err := read()
		if err == nil || r.p.IsPermanent != nil && r.p.IsPermanent(err) {
			return out, err
		}
		if attempt < r.p.MaxAttempts {
			if r.p.OnRetry != nil {
				r.p.OnRetry()
			}
			if serr := govern.SleepBackoff(context.Background(), attempt, r.p.BaseDelay, r.p.MaxDelay, r.p.Seed); serr == nil {
				continue
			}
		}
		if r.p.OnExhausted != nil {
			r.p.OnExhausted()
		}
		return out, err
	}
}

// ReadChunk implements ChunkSource.
func (r *retrySource) ReadChunk(meta ChunkMeta) (series.Columns, error) {
	return retry(r, func() (series.Columns, error) { return r.inner.ReadChunk(meta) })
}

// ReadTimes implements ChunkSource.
func (r *retrySource) ReadTimes(meta ChunkMeta) ([]int64, error) {
	return retry(r, func() ([]int64, error) { return r.inner.ReadTimes(meta) })
}

// ReadValues implements ChunkSource.
func (r *retrySource) ReadValues(meta ChunkMeta) ([]float64, error) {
	return retry(r, func() ([]float64, error) { return r.inner.ReadValues(meta) })
}

// Recycle implements Recycler: a retried read returns the wrapped source's
// columns, so they go back to it.
func (r *retrySource) Recycle(ts []int64, vs []float64) {
	if rc, ok := r.inner.(Recycler); ok {
		rc.Recycle(ts, vs)
	}
}

var (
	_ ChunkSource = (*retrySource)(nil)
	_ Recycler    = (*retrySource)(nil)
)
