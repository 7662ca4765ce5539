package storage

import (
	"fmt"
	"sync"
)

// Warnings collects per-query degradation notes: chunks skipped because
// they could not be read, quarantine decisions, anything the caller should
// see next to a partial result. All methods are safe for concurrent use;
// the nil Warnings discards everything, letting operators report
// unconditionally.
type Warnings struct {
	mu    sync.Mutex
	notes []string
}

// Add records one formatted warning.
func (w *Warnings) Add(format string, args ...interface{}) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
	w.mu.Unlock()
}

// List returns a copy of the warnings recorded so far.
func (w *Warnings) List() []string {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.notes...)
}

// Len returns the number of warnings recorded so far.
func (w *Warnings) Len() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.notes)
}
