package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// ErrReadOnly marks writes rejected while the engine is in read-only
// degraded mode (disk full). The condition is transient: the engine
// probes for space on later write attempts and recovers automatically, so
// callers should back off and retry rather than give up.
var ErrReadOnly = errors.New("lsm: engine is read-only (out of disk space)")

// isNoSpace classifies the errors that flip the engine read-only: real
// ENOSPC from the filesystem, or a faultfs-injected error wrapping it.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// classifyWrite inspects a write-path error. Out-of-space flips the
// engine into read-only degraded mode — queries keep serving, writes get
// a typed retryable error — instead of surfacing as an anonymous I/O
// failure. Every other error passes through unchanged (including
// faultfs.ErrCrash, which the torture harness expects verbatim).
func (e *Engine) classifyWrite(err error) error {
	if err == nil || !isNoSpace(err) {
		return err
	}
	e.enterReadOnly(err)
	return fmt.Errorf("%w: %v", ErrReadOnly, err)
}

// enterReadOnly flips the degraded flag once and records the cause.
func (e *Engine) enterReadOnly(cause error) {
	reason := cause.Error()
	if e.readOnly.CompareAndSwap(nil, &reason) {
		e.roTrips.Add(1)
	}
}

// ReadOnly reports whether the engine is currently degraded to read-only
// and, if so, why.
func (e *Engine) ReadOnly() (bool, string) {
	if reason := e.readOnly.Load(); reason != nil {
		return true, *reason
	}
	return false, ""
}

// writable gates the mutating entry points while degraded: it re-probes
// for disk space (rate-limited) and either recovers the engine or
// returns the typed retryable error.
func (e *Engine) writable() error {
	reason := e.readOnly.Load()
	if reason == nil || e.tryRecover() {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrReadOnly, *reason)
}

// tryRecover probes whether the directory accepts writes again, at most
// once per SpaceProbeInterval. The probe is a tiny create-write-remove in
// the database directory, routed through the "probe.space" step site so
// fault harnesses can keep it failing while simulated space is gone.
func (e *Engine) tryRecover() bool {
	interval := e.opts.SpaceProbeInterval
	if interval == 0 {
		interval = time.Second
	}
	if interval > 0 {
		now := time.Now().UnixNano()
		last := e.lastProbe.Load()
		if now-last < int64(interval) {
			return false
		}
		if !e.lastProbe.CompareAndSwap(last, now) {
			return false // another writer is probing
		}
	}
	if err := e.step("probe.space"); err != nil {
		return false
	}
	probe := filepath.Join(e.opts.Dir, ".space-probe")
	if err := os.WriteFile(probe, []byte("m4lsm space probe\n"), 0o644); err != nil {
		os.Remove(probe)
		return false
	}
	os.Remove(probe)
	e.readOnly.Store(nil)
	return true
}
