package exper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/workload"
)

// FaultRates is the fault-probability sweep of the -faults experiment.
var FaultRates = []float64{0, 0.02, 0.05, 0.1, 0.2}

// FaultMeasurement is one row of the robustness experiment: both operators
// run in degraded (non-strict) mode over a store whose chunk reads fail
// deterministically at the given rate.
type FaultMeasurement struct {
	Dataset string
	Rate    float64 // probability that one chunk read faults

	LSMLatency  time.Duration
	UDFLatency  time.Duration
	LSMWarnings int // chunks dropped by the merge-free operator
	UDFWarnings int // chunks dropped by the baseline
	Quarantined int // chunks quarantined engine-wide (detected corruption)
	StrictFails bool
	Injected    faultfs.Stats
}

// RunFaults drives the whole query pipeline under deterministic chunk-read
// fault injection: the store is built clean, reopened with a faultfs source
// wrapper, and queried by both operators in graceful-degradation mode. A
// query must never fail or panic — unreadable chunks degrade the result and
// corrupt ones are quarantined — while a STRICT query over the same state
// must refuse to answer. Faults are a pure function of (seed, chunk), so a
// rerun with the same flags reproduces the same degradation.
func RunFaults(cfg Config, rates []float64) ([]FaultMeasurement, error) {
	cfg = cfg.withDefaults()
	if len(rates) == 0 {
		rates = FaultRates
	}
	var out []FaultMeasurement
	for di, p := range cfg.Datasets {
		for ri, rate := range rates {
			dir, cleanup, err := tempDir(fmt.Sprintf("faults-%d-%d", di, ri))
			if err != nil {
				return nil, err
			}
			m, err := runFaultCell(cfg, p, rate, dir)
			cleanup()
			if err != nil {
				return nil, err
			}
			out = append(out, *m)
		}
	}
	return out, nil
}

func runFaultCell(cfg Config, p workload.Preset, rate float64, dir string) (*FaultMeasurement, error) {
	// Build the store clean, then reopen it with fault injection at the
	// chunk-source layer: file opens and footer parses stay reliable, every
	// query-time chunk read rolls the dice.
	name := p.Name
	b, err := build(cfg, p, 0.1, workload.DeleteOptions{}, dir)
	if err != nil {
		return nil, err
	}
	q := m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: cfg.W}
	if err := b.engine.Close(); err != nil {
		return nil, err
	}

	inj := faultfs.NewInjector(faultfs.Config{
		Seed:     cfg.Seed,
		ErrRate:  rate * 0.6, // transient read errors: skipped per query
		FlipRate: rate * 0.2, // detected corruption: quarantined for good
		SlowRate: rate * 0.2, // latency only; the read still succeeds
		Latency:  100 * time.Microsecond,
	})
	e, err := lsm.Open(lsm.Options{
		Dir:            dir,
		FlushThreshold: cfg.ChunkSize,
		DisableWAL:     true,
		WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
			s := faultfs.Wrap(src, inj)
			s.CorruptErr = tsfile.ErrCorrupt
			return s
		},
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	m := &FaultMeasurement{Dataset: name, Rate: rate}

	snap, err := e.Snapshot(name, q.Range())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := m4lsm.ComputeContext(context.Background(), snap, q, m4lsm.Options{Parallelism: cfg.Parallelism}); err != nil {
		return nil, fmt.Errorf("%s rate %g: degraded M4-LSM must not fail: %w", name, rate, err)
	}
	m.LSMLatency = time.Since(start)
	m.LSMWarnings = snap.Warnings.Len()

	snap, err = e.Snapshot(name, q.Range())
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := m4udf.ComputeContext(context.Background(), snap, q, m4udf.Options{Parallelism: cfg.Parallelism}); err != nil {
		return nil, fmt.Errorf("%s rate %g: degraded M4-UDF must not fail: %w", name, rate, err)
	}
	m.UDFLatency = time.Since(start)
	m.UDFWarnings = snap.Warnings.Len()

	// A strict query over the same faulty state must refuse to answer
	// whenever degradation occurred (quarantine already excludes corrupt
	// chunks, so strictness trips on the exclusion warning too).
	snap, err = e.Snapshot(name, q.Range())
	if err != nil {
		return nil, err
	}
	if snap.Warnings.Len() > 0 {
		m.StrictFails = true
	} else if _, err := m4lsm.ComputeContext(context.Background(), snap, q, m4lsm.Options{Parallelism: cfg.Parallelism, Strict: true}); err != nil {
		if !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, tsfile.ErrCorrupt) {
			return nil, fmt.Errorf("%s rate %g: strict run failed oddly: %w", name, rate, err)
		}
		m.StrictFails = true
	}

	m.Quarantined = e.Info().QuarantinedChunks
	m.Injected = inj.Stats()
	return m, nil
}

// WriteFaults renders the robustness sweep.
func WriteFaults(w io.Writer, rows []FaultMeasurement) {
	fmt.Fprintf(w, "== Fault injection: graceful degradation under chunk-read faults ==\n")
	fmt.Fprintf(w, "%-8s %8s %12s %12s %8s %8s %6s %8s %s\n",
		"dataset", "rate", "lsmLatency", "udfLatency", "lsmWarn", "udfWarn", "quar", "strict", "injected")
	for _, m := range rows {
		strict := "ok"
		if m.StrictFails {
			strict = "fails"
		}
		fmt.Fprintf(w, "%-8s %8.2f %12v %12v %8d %8d %6d %8s err=%d flip=%d slow=%d\n",
			m.Dataset, m.Rate,
			m.LSMLatency.Round(time.Microsecond), m.UDFLatency.Round(time.Microsecond),
			m.LSMWarnings, m.UDFWarnings, m.Quarantined, strict,
			m.Injected.Errors, m.Injected.Flips, m.Injected.Slows)
	}
}
