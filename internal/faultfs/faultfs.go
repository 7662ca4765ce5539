// Package faultfs injects storage faults deterministically, so tests and
// benchmarks can prove the query path degrades gracefully instead of hoping
// it does. Two layers are wrapped:
//
//   - Source (storage.ChunkSource): chunk-level read faults, where every
//     fault surfaces as a read error (CRC detection lives below this
//     layer; tests that need a real CRC miss rewrite bytes on disk).
//   - StepInjector: a write-path hook that simulates a process kill at the
//     n-th WAL-append/flush/footer/reopen step, for crash-recovery torture.
//
// Every decision is a pure function of (seed, site): a site fails the same
// way on every read, whatever the goroutine scheduling, so parallel
// operators see reproducible failures. A read is attempted once, so a test
// that wants a fault to clear stops routing reads through the Source.
package faultfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// ErrInjected marks a fault injected by this package. Read paths treat it
// like any other I/O error; tests use errors.Is to tell injected faults
// from real ones.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrash marks a simulated process kill injected by a StepInjector. The
// write path aborts mid-operation, leaving partial on-disk state exactly as
// a real crash would.
var ErrCrash = errors.New("faultfs: injected crash")

// Fault classifies what happens at one site.
type Fault uint8

// Fault kinds.
const (
	FaultNone  Fault = iota
	FaultErr         // the read fails with ErrInjected
	FaultFlip        // one bit of the returned bytes is flipped
	FaultShort       // the read returns fewer bytes than requested
	FaultSlow        // the read is delayed by Config.Latency
)

func (f Fault) String() string {
	switch f {
	case FaultErr:
		return "err"
	case FaultFlip:
		return "flip"
	case FaultShort:
		return "short"
	case FaultSlow:
		return "slow"
	default:
		return "none"
	}
}

// Config sets the per-site fault rates. Rates are probabilities in [0, 1]
// and partition a single uniform draw, so at most one fault fires per site;
// their sum should stay <= 1.
type Config struct {
	Seed      int64
	ErrRate   float64       // read error
	FlipRate  float64       // single-bit corruption
	ShortRate float64       // short read
	SlowRate  float64       // delayed read
	Latency   time.Duration // delay applied by FaultSlow (default 1ms)
}

// Stats counts the faults actually injected, by kind.
type Stats struct {
	Errors, Flips, Shorts, Slows int64
}

// Injector decides faults per site and counts what it injected. Safe for
// concurrent use.
type Injector struct {
	cfg Config

	errors atomic.Int64
	flips  atomic.Int64
	shorts atomic.Int64
	slows  atomic.Int64
}

// NewInjector builds an injector for the config.
func NewInjector(cfg Config) *Injector {
	if cfg.Latency <= 0 {
		cfg.Latency = time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// mix64 finalizes a hash (murmur3's fmix64): FNV-1a alone avalanches too
// weakly on short, similar site strings to feed a uniform draw.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Decide classifies a site deterministically: hash(seed, site) maps to a
// uniform draw in [0, 1) that the configured rates partition.
func (in *Injector) Decide(site string) Fault {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", in.cfg.Seed, site)
	// 53 bits of the mixed hash give an exact float64 in [0, 1).
	u := float64(mix64(h.Sum64())>>11) / float64(1<<53)
	for _, c := range []struct {
		rate float64
		f    Fault
	}{
		{in.cfg.ErrRate, FaultErr},
		{in.cfg.FlipRate, FaultFlip},
		{in.cfg.ShortRate, FaultShort},
		{in.cfg.SlowRate, FaultSlow},
	} {
		if u < c.rate {
			return c.f
		}
		u -= c.rate
	}
	return FaultNone
}

func (in *Injector) count(f Fault) {
	switch f {
	case FaultErr:
		in.errors.Add(1)
	case FaultFlip:
		in.flips.Add(1)
	case FaultShort:
		in.shorts.Add(1)
	case FaultSlow:
		in.slows.Add(1)
	}
}

// Stats returns the faults injected so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Errors: in.errors.Load(),
		Flips:  in.flips.Load(),
		Shorts: in.shorts.Load(),
		Slows:  in.slows.Load(),
	}
}

// Source wraps a storage.ChunkSource with chunk-level fault injection.
// Bit-flips and short reads cannot be expressed on decoded points without
// silently corrupting data, so below-CRC faults all surface as read errors;
// FaultSlow delays the read and then serves it. FaultFlip models *detected*
// corruption: when CorruptErr is set the flip error wraps it, letting
// callers hand in their corruption sentinel (e.g. tsfile.ErrCorrupt) so the
// engine's quarantine path fires exactly as it would for a real CRC miss.
type Source struct {
	inner storage.ChunkSource
	inj   *Injector

	// CorruptErr, when non-nil, is wrapped by flip-fault errors instead of
	// ErrInjected.
	CorruptErr error
}

// Wrap wraps src with the injector.
func Wrap(src storage.ChunkSource, inj *Injector) *Source {
	return &Source{inner: src, inj: inj}
}

func (s *Source) fault(meta storage.ChunkMeta, op string) error {
	site := fmt.Sprintf("chunk:%s/v%d/%s", meta.SeriesID, meta.Version, op)
	fault := s.inj.Decide(site)
	switch fault {
	case FaultNone:
		return nil
	case FaultSlow:
		s.inj.count(fault)
		time.Sleep(s.inj.cfg.Latency)
		return nil
	case FaultFlip:
		s.inj.count(fault)
		if s.CorruptErr != nil {
			return fmt.Errorf("faultfs: injected corruption %s: %w", site, s.CorruptErr)
		}
		return fmt.Errorf("%w: %s %s", ErrInjected, fault, site)
	default:
		s.inj.count(fault)
		return fmt.Errorf("%w: %s %s", ErrInjected, fault, site)
	}
}

// ReadChunk implements storage.ChunkSource.
func (s *Source) ReadChunk(meta storage.ChunkMeta) (series.Columns, error) {
	if err := s.fault(meta, "data"); err != nil {
		return series.Columns{}, err
	}
	return s.inner.ReadChunk(meta)
}

// ReadTimes implements storage.ChunkSource.
func (s *Source) ReadTimes(meta storage.ChunkMeta) ([]int64, error) {
	if err := s.fault(meta, "times"); err != nil {
		return nil, err
	}
	return s.inner.ReadTimes(meta)
}

// ReadValues implements storage.ChunkSource. A value-only read is the rest
// of a data load, so it draws the "data" site's fault: a seed fails the same
// chunks whichever load shape reaches them.
func (s *Source) ReadValues(meta storage.ChunkMeta) ([]float64, error) {
	if err := s.fault(meta, "data"); err != nil {
		return nil, err
	}
	return s.inner.ReadValues(meta)
}

var _ storage.ChunkSource = (*Source)(nil)

// StepInjector simulates a process kill at the n-th write-path step. The
// LSM engine calls Step at every WAL-append/flush/footer/reopen point; the
// armed step returns ErrCrash and the engine aborts with partial on-disk
// state. A zero FailAt never crashes (pure step counting).
type StepInjector struct {
	failAt int64
	calls  atomic.Int64

	mu    sync.Mutex
	sites []string
}

// NewStepInjector arms a crash at the failAt-th step (1-based); 0 counts
// steps without crashing.
func NewStepInjector(failAt int64) *StepInjector {
	return &StepInjector{failAt: failAt}
}

// Step records the site and crashes if armed for this call.
func (s *StepInjector) Step(site string) error {
	n := s.calls.Add(1)
	s.mu.Lock()
	s.sites = append(s.sites, site)
	s.mu.Unlock()
	if s.failAt > 0 && n == s.failAt {
		return fmt.Errorf("%w: step %d (%s)", ErrCrash, n, site)
	}
	return nil
}

// Steps returns how many steps have been observed.
func (s *StepInjector) Steps() int64 { return s.calls.Load() }

// Sites returns the sites observed so far, in call order.
func (s *StepInjector) Sites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.sites...)
}
