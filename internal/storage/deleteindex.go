package storage

import "sort"

// DeleteIndex answers "is a point written at version v and timestamp t
// covered by any delete with a larger version?" in O(log D) after an
// O(D log D) build. It is the analogue of the CPU-efficient delete sort
// IoTDB applies during merges (reference [1] of the paper): since the
// covering condition only depends on the *maximum* version among deletes
// covering t, the time axis is swept once into segments carrying that
// maximum.
type DeleteIndex struct {
	bounds []int64   // segment start positions, sorted
	maxVer []Version // max delete version covering [bounds[i], bounds[i+1])
}

// NewDeleteIndex builds the index over a set of deletes (order free).
func NewDeleteIndex(deletes []Delete) *DeleteIndex {
	type event struct {
		at    int64
		ver   Version
		start bool
	}
	events := make([]event, 0, 2*len(deletes))
	for _, d := range deletes {
		if d.End < d.Start {
			continue
		}
		events = append(events, event{at: d.Start, ver: d.Version, start: true})
		// Closed range: the delete stops covering at End+1. Guard the
		// int64 edge; a delete ending at MaxInt64 never expires.
		if d.End != int64(^uint64(0)>>1) {
			events = append(events, event{at: d.End + 1, ver: d.Version, start: false})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })

	ix := &DeleteIndex{}
	active := map[Version]int{}
	maxActive := func() Version {
		var m Version
		for v := range active {
			if v > m {
				m = v
			}
		}
		return m
	}
	for i := 0; i < len(events); {
		at := events[i].at
		for i < len(events) && events[i].at == at {
			e := events[i]
			if e.start {
				active[e.ver]++
			} else {
				active[e.ver]--
				if active[e.ver] == 0 {
					delete(active, e.ver)
				}
			}
			i++
		}
		ix.bounds = append(ix.bounds, at)
		ix.maxVer = append(ix.maxVer, maxActive())
	}
	return ix
}

// segment returns the index of the segment holding t, -1 before the first.
func (ix *DeleteIndex) segment(t int64) int {
	return sort.Search(len(ix.bounds), func(i int) bool { return ix.bounds[i] > t }) - 1
}

// Covered reports whether timestamp t is covered by any delete with a
// version strictly larger than ver.
func (ix *DeleteIndex) Covered(t int64, ver Version) bool {
	i := ix.segment(t)
	return i >= 0 && ix.maxVer[i] > ver
}

// CoversAny reports whether Covered(t, ver) holds for some t in the closed
// range [lo, hi], lo <= hi. A scan over a sorted column whose first and last
// timestamps it refutes needs no per-point delete check at all.
func (ix *DeleteIndex) CoversAny(lo, hi int64, ver Version) bool {
	for i := max(ix.segment(lo), 0); i < len(ix.bounds) && ix.bounds[i] <= hi; i++ {
		if ix.maxVer[i] > ver {
			return true
		}
	}
	return false
}

// Sweep answers Covered for one version at non-decreasing timestamps by
// walking the index segments beside a sorted column, a merge-join: amortized
// O(1) per point instead of a binary search each.
type Sweep struct {
	ix  *DeleteIndex
	ver Version
	i   int // segment holding the last timestamp looked up, -1 before the first
}

// Sweep starts a cursor for version ver at timestamp from.
func (ix *DeleteIndex) Sweep(from int64, ver Version) Sweep {
	return Sweep{ix: ix, ver: ver, i: ix.segment(from)}
}

// Covered is DeleteIndex.Covered(t, ver) for a t no smaller than the
// previous lookup's, or than the cursor's start.
func (s *Sweep) Covered(t int64) bool {
	for b := s.ix.bounds; s.i+1 < len(b) && b[s.i+1] <= t; {
		s.i++
	}
	return s.i >= 0 && s.ix.maxVer[s.i] > s.ver
}
