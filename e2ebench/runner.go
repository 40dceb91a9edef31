package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds its cluster; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// workload is one benchmark scenario.
type workload interface {
	// prepare generates the inputs from the seed. It is not timed.
	prepare(e *env) error
	// setup builds and loads a cluster (timed as setup_s); teardown
	// releases it.
	setup(e *env) error
	teardown()
	// measure drives load for d. full selects the complete end-to-end
	// measurement (knn adds its capacity run); traced runs measure three
	// fixed-load thirds instead.
	measure(e *env, d time.Duration, full bool) (*phase, error)
	// check verifies the program's outputs after the measured phases.
	check(e *env) error
	// roots names the per-operation root spans for unattributed_share.
	roots() map[string]bool
}

// env is the state shared by a workload and the harness.
type env struct {
	cfg      config
	tr       atomic.Pointer[tracer] // non-nil only during a traced phase
	store    *storeCounters         // non-nil only in traced runs
	wal      walCounters
	viewBusy busy // every view call, traced or not
	bc       *benchCluster
	// extra holds workload-specific per-layer values of the traced phase.
	extra map[string]float64
}

// clusterConfig returns the cluster configuration for this run.
func (e *env) clusterConfig(walDir string) clusterConfig {
	return clusterConfig{store: e.store, walDir: walDir, wal: &e.wal}
}

// phase is what one measured stretch of load produced.
type phase struct {
	wall       time.Duration
	work       float64 // work_per_s
	opLats     []sample
	sampleLats []sample
	attempted  int64
	failed     int64
	// extra are workload-specific per-layer values.
	extra map[string]float64
}

// outcome is a finished run before formatting.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	checkErr  error
}

func execute(cfg config, w workload, host hostInfo) (*outcome, error) {
	e := &env{cfg: cfg}
	if cfg.trace {
		e.store = &storeCounters{}
	}
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		if err := w.setup(e); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()

	d := time.Duration(cfg.seconds * float64(time.Second))
	o := &outcome{}
	if !cfg.trace {
		// Return set-up garbage to the OS so the measured phase's resident
		// set starts from the live heap.
		runtime.GC()
		debug.FreeOSMemory()
		rss := sampleRSS()
		p, err := w.measure(e, d, true)
		peak := rss()
		if err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		bpe, _, err := e.bc.storeBytesPerEdge()
		if err != nil {
			return nil, err
		}
		o.e2e = map[string]float64{
			"setup_s":              median(setups),
			"peak_rss_mb":          peak,
			"store_bytes_per_edge": bpe,
			"work_per_s":           p.work,
			"op_p50_ms":            windowedMs(p.opLats, 0.50),
			"sample_p50_ms":        windowedMs(p.sampleLats, 0.50),
		}
		o.attempted, o.failed = p.attempted, p.failed
		fmt.Fprintf(os.Stderr, "e2ebench: %d ops, %d op samples, %d sample samples, setups %v\n",
			p.attempted, len(p.opLats), len(p.sampleLats), setups)
	} else {
		// Untraced, traced, untraced thirds: the mean of the untraced ones
		// is the baseline for the tracing overhead, which cancels a linear
		// drift such as churn's growing graph.
		third := d / 3
		u1, err := w.measure(e, third, false)
		if err != nil {
			return nil, fmt.Errorf("measure untraced third: %w", err)
		}
		before := readCounters(e)
		tr := newTracer()
		e.tr.Store(tr)
		e.store.on.Store(true)
		t, err := w.measure(e, third, false)
		e.store.on.Store(false)
		e.tr.Store(nil)
		if err != nil {
			return nil, fmt.Errorf("measure traced third: %w", err)
		}
		after := readCounters(e)
		spans := tr.snapshot()
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, host, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		o.layers = layerTable(after.minus(before), spans, t, w.roots())
		for k, v := range e.extra {
			o.layers[k] = v
		}
		for k, v := range t.extra {
			o.layers[k] = v
		}
		u2, err := w.measure(e, third, false)
		if err != nil {
			return nil, fmt.Errorf("measure untraced third: %w", err)
		}
		u := []*phase{u1, u2}
		var work, p50 float64
		for _, p := range u {
			work += p.work / 2
			p50 += quantileMs(p.opLats, 0.5) / 2
		}
		o.layers["setup_s.median"] = median(setups)
		o.layers["trace.overhead_work_share"] = overhead(work, t.work, true)
		o.layers["trace.overhead_op_p50_share"] = overhead(p50, quantileMs(t.opLats, 0.5), false)
		o.layers["trace.spans"] = float64(len(spans))
		// Tail latencies are too unsteady on small hosts to bound; the
		// untraced thirds still report them.
		ops, samples := append(u1.opLats, u2.opLats...), append(u1.sampleLats, u2.sampleLats...)
		o.layers["untraced.op_p90_ms"] = windowedMs(ops, 0.90)
		o.layers["untraced.op_p99_ms"] = quantileMs(ops, 0.99)
		o.layers["untraced.sample_p99_ms"] = quantileMs(samples, 0.99)
		o.attempted = u1.attempted + t.attempted + u2.attempted
		o.failed = u1.failed + t.failed + u2.failed
		fmt.Fprintf(os.Stderr, "e2ebench: wrote %d spans to %s\n", len(spans), path)
	}
	o.checkErr = w.check(e)
	return o, nil
}

// overhead is how much worse the traced value is than the untraced one, as
// a share of the untraced value.
func overhead(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherIsBetter {
		return (untraced - traced) / untraced
	}
	return (traced - untraced) / untraced
}
