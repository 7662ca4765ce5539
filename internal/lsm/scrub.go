// Integrity scrubber. A scrub pass re-reads durable state from disk and
// verifies it end to end: every chunk's CRCs (by decoding it the same way
// a query would) and the pyramid manifest. Verification failures degrade
// exactly the way query-time failures do — corrupt chunks are quarantined
// out of future snapshots — so silent bit rot is found and contained
// before any query trips over it. The WAL has no pass: it holds only what
// was committed since the last flush, and Open reads it whole. Passes run
// on demand (/admin/scrub, m4cli).
//
// Scrub I/O is charged against a govern budget (ScrubOptions.Limits, set
// per call): an exhausted budget ends the pass early and the next pass
// resumes at the cursor where this one stopped, so scrubbing amortizes
// over passes instead of starving queries.
package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"m4lsm/internal/govern"
	"m4lsm/internal/pyramid"
	"m4lsm/internal/tsfile"
)

// ScrubOptions configures one scrub pass.
type ScrubOptions struct {
	// Limits caps the pass's I/O; the zero value scans everything.
	Limits govern.Limits
	// Heal triggers a compaction when the pass quarantined chunks, folding
	// the surviving data into a clean generation and dropping the corrupt
	// bytes for good.
	Heal bool
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	ChunksChecked     int
	ChunksQuarantined int
	// ChunksSkipped counts chunks already quarantined before the pass.
	ChunksSkipped int
	PyramidOK     bool
	// Healed reports that quarantined chunks were compacted away.
	Healed bool
	// Partial is set when the govern budget ran out; the next pass resumes
	// where this one stopped.
	Partial bool
	Errors  []string
}

// Scrub runs one integrity pass now (/admin/scrub calls it on demand).
// Passes are serialized.
func (e *Engine) Scrub(opts ScrubOptions) (ScrubReport, error) {
	e.scrubMu.Lock()
	defer e.scrubMu.Unlock()
	var rep ScrubReport
	rep.PyramidOK = true
	if e.closed.Load() {
		return rep, errEngineClosed
	}
	e.scrubRuns.Add(1)
	budget := govern.NewBudget(opts.Limits)

	e.scrubChunkFiles(&rep, budget)
	if !rep.Partial {
		e.scrubPyramid(&rep)
	}
	e.scrubErrors.Add(int64(len(rep.Errors)))
	if opts.Heal && rep.ChunksQuarantined > 0 && !e.closed.Load() {
		if err := e.Compact(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("heal compaction: %v", err))
			e.scrubErrors.Add(1)
		} else {
			rep.Healed = true
		}
	}
	return rep, nil
}

// scrubCursor names the first chunk a scrub cycle has not verified by its
// file's path and its index there: chunk files are immutable, so the name
// survives a compaction that replaces the file list, and a cycle whose file
// is gone starts over. The zero value is the start of a cycle.
type scrubCursor struct {
	path  string
	chunk int
}

// scrubChunkFiles decodes every chunk from disk, quarantining the ones
// whose bytes fail CRC or decode checks. The resume cursor e.scrubCur
// carries across budget-limited passes.
func (e *Engine) scrubChunkFiles(rep *ScrubReport, budget *govern.Budget) {
	e.mu.RLock()
	readers := append([]*tsfile.Reader(nil), e.files...)
	e.mu.RUnlock()
	at := e.scrubCur
	start := slices.IndexFunc(readers, func(r *tsfile.Reader) bool { return r.Path() == at.path })
	if start < 0 {
		start, at = 0, scrubCursor{}
	}
	for i, r := range readers[start:] {
		for j, meta := range r.Metas() {
			if i == 0 && j < at.chunk {
				continue // verified in an earlier partial pass this cycle
			}
			if e.closed.Load() {
				rep.Partial = true
				return
			}
			e.mu.RLock()
			quarantined := e.isQuarantined(meta)
			e.mu.RUnlock()
			if quarantined {
				rep.ChunksSkipped++
				continue
			}
			if err := budget.ChargeChunk(meta.Count); err != nil {
				rep.Partial = true
				e.scrubCur = scrubCursor{r.Path(), j} // resume at this chunk next pass
				return
			}
			rep.ChunksChecked++
			e.scrubChunks.Add(1)
			if _, err := r.ReadChunk(meta); err != nil {
				if errors.Is(err, tsfile.ErrCorrupt) {
					if serr := e.step("scrub.quarantine"); serr != nil {
						rep.Errors = append(rep.Errors, serr.Error())
						rep.Partial = true
						e.scrubCur = scrubCursor{r.Path(), j}
						return
					}
					if e.quarantineChunk(meta, err) {
						rep.ChunksQuarantined++
						e.scrubQuarantines.Add(1)
					}
				} else {
					// Transient read failure: report, do not quarantine —
					// the next pass or query may succeed.
					rep.Errors = append(rep.Errors, fmt.Sprintf("chunk %s v%d: %v", meta.SeriesID, meta.Version, err))
				}
			}
		}
	}
	e.scrubCur = scrubCursor{} // full cycle completed
}

// scrubPyramid verifies the persisted pyramid manifest decodes. A corrupt
// manifest cannot mislead the running engine (it is only read at Open,
// which degrades to full-stale), so the scrubber heals it in place by
// re-persisting the in-memory state.
func (e *Engine) scrubPyramid(rep *ScrubReport) {
	if e.pyr == nil {
		return
	}
	data, err := os.ReadFile(filepath.Join(e.opts.Dir, pyramidFileName))
	if errors.Is(err, os.ErrNotExist) {
		return // nothing persisted yet
	}
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("pyramid manifest: %v", err))
		return
	}
	if _, _, err := pyramid.Decode(data); err != nil {
		rep.PyramidOK = false
		rep.Errors = append(rep.Errors, fmt.Sprintf("pyramid manifest: %v", err))
		// Heal in place: the in-memory pyramid is authoritative while the
		// engine runs, so marking it dirty and re-saving rewrites a clean
		// manifest atomically.
		e.mu.Lock()
		defer e.unlock()
		if e.closed.Load() {
			return
		}
		e.pyr.MarkDirty()
		if herr := e.pyrSave(0, true); herr != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("pyramid manifest rewrite: %v", herr))
		}
	}
}
