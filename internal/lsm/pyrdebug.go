package lsm

// Verification aid for the rollup pyramid. The differential harness calls
// PyrCheckInvariants after every generated workload to turn "a cell served
// a wrong value" failures into a pinpointed level/index instead of a
// span-level mismatch.

import "fmt"

// PyrCheckInvariants verifies, for one series, that every covered parent
// cell has both children covered and equals the combination of its
// children's cells. Returns the first violation found.
func (e *Engine) PyrCheckInvariants(id string) error {
	if e.pyr == nil {
		return nil
	}
	p := e.pyr
	p.mu.RLock()
	defer p.mu.RUnlock()
	sp := p.series[id]
	if sp == nil {
		return nil
	}
	for li := 1; li < len(sp.levels); li++ {
		child, parent := sp.levels[li-1], sp.levels[li]
		for _, r := range parent.cover {
			for idx := r.lo; idx < r.hi; idx++ {
				if !child.cover.contains(idx<<1, (idx+1)<<1) {
					return fmt.Errorf("%s L%d cell %d [%d,%d) covered but child L%d not fully covered (child cover %v)",
						id, parent.log, idx, idx<<parent.log, (idx+1)<<parent.log, child.log, child.cover)
				}
				a, aok := child.cells[idx<<1]
				bb, bok := child.cells[idx<<1|1]
				pc, pok := parent.cells[idx]
				var want pyrCell
				var wok bool
				switch {
				case aok && bok:
					want, wok = combineCells(a, bb), true
				case aok:
					want, wok = a, true
				case bok:
					want, wok = bb, true
				}
				if wok != pok || (wok && want != pc) {
					return fmt.Errorf("%s L%d cell %d [%d,%d): have ok=%v %+v, want ok=%v %+v",
						id, parent.log, idx, idx<<parent.log, (idx+1)<<parent.log, pok, pc, wok, want)
				}
			}
		}
	}
	return nil
}
