package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// busy counts calls (or items) and the time spent in them.
type busy struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (b *busy) add(n int64, since time.Time) {
	b.n.Add(n)
	b.ns.Add(int64(time.Since(since)))
}

// sample is one operation's latency and when it completed.
type sample struct {
	at time.Time
	d  time.Duration
}

// latencies collects per-operation samples for percentiles.
type latencies struct {
	mu sync.Mutex
	s  []sample
}

func (l *latencies) add(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.s = append(l.s, sample{time.Now(), d})
	l.mu.Unlock()
}

// take returns the collected samples and starts a new collection.
func (l *latencies) take() []sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.s
	l.s = nil
	return s
}

// quantileMs returns the q-quantile of the samples' latencies in
// milliseconds (nearest rank).
func quantileMs(ss []sample, q float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	i = min(max(i, 0), len(ds)-1)
	return float64(ds[i]) / 1e6
}

// windowedMs cuts the samples, in completion order, into windows of equal
// count (up to ten, of at least 200 samples each) and returns the median of
// the windows' q-quantiles, so a stall confined to a minority of the run
// does not move the reported figure.
func windowedMs(ss []sample, q float64) float64 {
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].at.Before(s[j].at) })
	n := min(max(len(s)/200, 1), 10)
	var qs []float64
	for w := 0; w < n; w++ {
		qs = append(qs, quantileMs(s[w*len(s)/n:(w+1)*len(s)/n], q))
	}
	return median(qs)
}

// storeCounters aggregates storage-layer work on every shard. Per-seed
// sampling calls are far too fine for one span each.
type storeCounters struct {
	on     atomic.Bool // counting only while a traced phase runs
	sample busy        // calls = SampleNeighbors calls (one per seed per hop)
	apply  busy        // calls = events applied
}

// timedStore is the storage layer as the server sees it, timed from
// outside. Embedding the concrete store keeps Save/Load/Reset/AllStats
// reachable, so the service's type assertions still succeed.
type timedStore struct {
	*storage.DynamicStore
	c *storeCounters
}

func (s *timedStore) SampleNeighbors(src graph.VertexID, et graph.EdgeType, k int, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	if !s.c.on.Load() {
		return s.DynamicStore.SampleNeighbors(src, et, k, rng, dst)
	}
	start := time.Now()
	out := s.DynamicStore.SampleNeighbors(src, et, k, rng, dst)
	s.c.sample.add(1, start)
	return out
}

func (s *timedStore) SampleNeighborsUniform(src graph.VertexID, et graph.EdgeType, k int, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	if !s.c.on.Load() {
		return s.DynamicStore.SampleNeighborsUniform(src, et, k, rng, dst)
	}
	start := time.Now()
	out := s.DynamicStore.SampleNeighborsUniform(src, et, k, rng, dst)
	s.c.sample.add(1, start)
	return out
}

func (s *timedStore) ApplyBatch(events []graph.Event) {
	if !s.c.on.Load() {
		s.DynamicStore.ApplyBatch(events)
		return
	}
	start := time.Now()
	s.DynamicStore.ApplyBatch(events)
	s.c.apply.add(int64(len(events)), start)
}

// timedView wraps the view layer: each call adds to the view's busy
// total, opens a span while a traced phase runs, and successful
// SampleSubgraph latencies feed the end-to-end sampling percentiles.
type timedView struct {
	inner   view.GraphView
	busy    *busy
	tr      *atomic.Pointer[tracer]
	subLats *latencies
}

func (v *timedView) Unwrap() view.GraphView { return v.inner }

func (v *timedView) call(name string, fn func()) {
	tr := v.tr.Load()
	start, id := time.Now(), tr.begin(name, 0)
	fn()
	tr.end(id)
	v.busy.add(1, start)
}

func (v *timedView) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) (out []graph.VertexID, err error) {
	v.call("view.sample_neighbors", func() { out, err = v.inner.SampleNeighbors(seeds, et, fanout) })
	return out, err
}

func (v *timedView) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) (out [][]graph.VertexID, err error) {
	start := time.Now()
	v.call("view.sample_subgraph", func() { out, err = v.inner.SampleSubgraph(seeds, path, fanouts) })
	if err == nil {
		v.subLats.add(time.Since(start))
	}
	return out, err
}

func (v *timedView) Degrees(nodes []graph.VertexID, et graph.EdgeType) (out []int, err error) {
	v.call("view.degrees", func() { out, err = v.inner.Degrees(nodes, et) })
	return out, err
}

func (v *timedView) Features(nodes []graph.VertexID, dim int) (out []float32, err error) {
	v.call("view.features", func() { out, err = v.inner.Features(nodes, dim) })
	return out, err
}

func (v *timedView) Labels(nodes []graph.VertexID) (out []int32, err error) {
	v.call("view.labels", func() { out, err = v.inner.Labels(nodes) })
	return out, err
}

func (v *timedView) Sources(et graph.EdgeType) (out []graph.VertexID, err error) {
	v.call("view.sources", func() { out, err = v.inner.Sources(et) })
	return out, err
}

// timedStepper traces the gnn layer's training step and records the
// consumer's per-batch interval: from the end of the previous step (or the
// epoch's start) to the end of this one.
type timedStepper struct {
	inner    *gnn.Trainer
	tr       *atomic.Pointer[tracer]
	lats     *latencies
	lastDone time.Time
}

func (s *timedStepper) TrainStep(b *gnn.Batch) float64 {
	tr := s.tr.Load()
	id := tr.begin("gnn.train_step", 0)
	loss := s.inner.TrainStep(b)
	tr.end(id)
	now := time.Now()
	s.lats.add(now.Sub(s.lastDone))
	s.lastDone = now
	return loss
}

// rateWindows is how many equal time windows a rate is measured over.
const rateWindows = 5

// windowedRate cuts [start, start+wall) into rateWindows equal windows and
// returns the median over windows of perOp * completions / window length.
func windowedRate(ss []sample, start time.Time, wall time.Duration, perOp float64) float64 {
	counts := make([]float64, rateWindows)
	win := wall / rateWindows
	for _, s := range ss {
		if i := int(s.at.Sub(start) / win); i >= 0 && i < rateWindows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] *= perOp / win.Seconds()
	}
	return median(counts)
}
