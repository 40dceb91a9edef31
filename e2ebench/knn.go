package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/graph"
	"platod2gl/internal/serve"
	"platod2gl/internal/view"
)

// Serving shape fixed by the workload, never derived from the host.
const (
	knnK       = 10
	knnWorkers = 2 // serve.Config.Workers and request goroutines
	knnF1      = 8 // platod2gl-serve / platod2gl-train -f1 default
	knnF2      = 5
	knnWarm    = 256 // platod2gl-serve -warm-batch default
	// knnTrainEpochs is the short training run that produces the served
	// checkpoint.
	knnTrainEpochs = 2

	// knnFixedRate is the offered rate, below saturation, at which the
	// latency percentiles are reported.
	knnFixedRate = 400.0
	// knnRecallFloor is the minimum mean recall@10 against brute force.
	knnRecallFloor = 0.9
	// knnRecallQueries is how many answers the recall check re-derives.
	knnRecallQueries = 200
)

// knnAnswer is one served k-NN request kept for the recall check.
type knnAnswer struct {
	query graph.VertexID
	vec   []float32
	hits  []serve.Result
}

type knnWorkload struct {
	size  graphSize
	g     *labeledGraph
	bc    *benchCluster
	eng   *serve.Engine
	ckDir string

	sampleLats latencies
	warmS      float64
	warmViewS  float64

	mu      sync.Mutex
	invalid []error
	answers []knnAnswer
	reqSeq  atomic.Int64
	// probes are the query vectors of a traced phase. Each is searched
	// again after the phase, outside every request, to time the ann layer.
	probes [][]float32
}

func newKNN(cfg config) *knnWorkload {
	sz := graphSize{nodes: 10_000, dim: 16, trainSeeds: 8_192, testSeeds: 1_024, degree: 8}
	if cfg.smoke {
		sz = graphSize{nodes: 1_200, dim: 16, trainSeeds: 768, testSeeds: 256, degree: 8}
	}
	return &knnWorkload{size: sz}
}

func (w *knnWorkload) prepare(e *env) error {
	w.g = genLabeledGraph(w.size, trainClasses, e.cfg.seed)
	return nil
}

func (w *knnWorkload) setup(e *env) error {
	bc, err := startCluster(e.clusterConfig(""))
	if err != nil {
		return err
	}
	w.bc, e.bc = bc, bc
	if err := w.g.load(bc.client); err != nil {
		return err
	}
	// A short training run writes the checkpoint the engine serves.
	sess := newTrainSession(e, bc.client, w.g.dim, knnF1, knnF2, e.cfg.seed, nil, nil)
	train, _ := w.g.split(w.size.trainSeeds, w.size.testSeeds, e.cfg.seed)
	for ep := 0; ep < knnTrainEpochs; ep++ {
		if _, err := sess.epoch(ep, train, e.cfg.seed); err != nil {
			return fmt.Errorf("train checkpoint: %w", err)
		}
	}
	w.ckDir, err = os.MkdirTemp("", "e2ebench-ckpt-")
	if err != nil {
		return err
	}
	st := checkpoint.Capture(checkpoint.Manifest{Epoch: knnTrainEpochs, Seed: e.cfg.seed}, sess.trainer.Model.Params(), sess.trainer.Opt)
	if _, err := checkpoint.Save(w.ckDir, st, checkpoint.SaveOptions{Keep: 3}); err != nil {
		return err
	}
	st, _, err = checkpoint.LoadLatest(w.ckDir, nil)
	if err != nil {
		return err
	}
	gv := &timedView{inner: view.NewCluster(bc.client, e.cfg.seed), busy: &e.viewBusy, tr: &e.tr, subLats: &w.sampleLats}
	w.eng, err = serve.New(serve.Config{
		View: gv, State: st, Rel: 0, F1: knnF1, F2: knnF2,
		Workers: knnWorkers, IndexSeed: e.cfg.seed, Metrics: &serve.Metrics{},
	})
	if err != nil {
		return err
	}
	viewNs0 := e.viewBusy.ns.Load()
	start := time.Now()
	n, err := w.eng.Warm(context.Background(), knnWarm)
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	w.warmS = time.Since(start).Seconds()
	viewNs1 := e.viewBusy.ns.Load()
	w.warmViewS = float64(viewNs1-viewNs0) / 1e9
	w.sampleLats.take()
	e.extra = map[string]float64{"setup.warm_s": w.warmS, "setup.warm_view_s": w.warmViewS}
	fmt.Fprintf(os.Stderr, "e2ebench: knn warmed %d vertices in %.2fs (view %.2fs)\n", n, w.warmS, w.warmViewS)
	return nil
}

func (w *knnWorkload) teardown() {
	if w.bc != nil {
		w.bc.close()
		w.bc = nil
	}
	if w.ckDir != "" {
		os.RemoveAll(w.ckDir)
		w.ckDir = ""
	}
}

func (w *knnWorkload) roots() map[string]bool { return map[string]bool{"knn.request": true} }

// loadResult is one open-loop stretch at a fixed offered rate.
type loadResult struct {
	lats    []sample // latency from the due time, or from the send for an idle sender
	sent    int64
	failed  int64
	genLate []sample // timer lateness of idle senders
	queueNs int64    // summed waits for a busy sender
	wall    time.Duration
}

// openLoop offers requests at rate for dur on a seeded Poisson schedule
// from knnWorkers sender goroutines.
func (w *knnWorkload) openLoop(e *env, rate float64, dur time.Duration, rng *rand.Rand) *loadResult {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	ids := make([]graph.VertexID, len(due))
	for i := range ids {
		ids[i] = w.g.nodes[rng.Intn(len(w.g.nodes))]
	}
	res := &loadResult{}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < knnWorkers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				idle := time.Until(dueAt) > 0
				if idle {
					time.Sleep(time.Until(dueAt))
				}
				sendAt := time.Now()
				wait := sendAt.Sub(dueAt)
				// A request that found both senders busy has queued in the
				// program since its due time. An idle sender's wake-up
				// lateness is the harness's own: it is reported as
				// knn.gen_late_ms and the request is timed from its send.
				from := dueAt
				if idle {
					from = sendAt
				}
				err := w.request(e, ids[i], from, sendAt, true)
				lat := time.Since(from)
				mu.Lock()
				res.sent++
				if err != nil {
					res.failed++
				} else {
					res.lats = append(res.lats, sample{from.Add(lat), lat})
				}
				if idle {
					res.genLate = append(res.genLate, sample{sendAt, wait})
				} else {
					res.queueNs += int64(wait)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// capacity runs knnWorkers closed loops of back-to-back requests for dur
// and returns the completed requests per second, as the median over
// windows of the run.
func (w *knnWorkload) capacity(e *env, dur time.Duration, rng *rand.Rand) float64 {
	ids := make([]graph.VertexID, 1<<14)
	for i := range ids {
		ids[i] = w.g.nodes[rng.Intn(len(w.g.nodes))]
	}
	var done latencies
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < knnWorkers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; time.Since(start) < dur; i += knnWorkers {
				now := time.Now()
				if w.request(e, ids[i%len(ids)], now, now, false) == nil {
					done.add(time.Since(now))
				}
			}
		}(s)
	}
	wg.Wait()
	return windowedRate(done.take(), start, dur, 1)
}

// request issues one k-NN query and validates the answer. Its span starts
// at from: the due time, or the send time when the sender was idle.
func (w *knnWorkload) request(e *env, id graph.VertexID, from, sendAt time.Time, keep bool) error {
	tr := e.tr.Load()
	root := tr.beginAt("knn.request", w.reqSeq.Add(1), from)
	tr.add("knn.queue", root, 0, from, sendAt)
	sp := tr.begin("serve.knn", 0)
	hits, vec, err := w.eng.KNN(context.Background(), id, knnK)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	verr := validateKNN(id, hits, knnK)
	w.mu.Lock()
	defer w.mu.Unlock()
	if tr != nil {
		w.probes = append(w.probes, vec)
	}
	if verr != nil {
		w.invalid = append(w.invalid, verr)
	} else if keep && len(w.answers) < knnRecallQueries {
		w.answers = append(w.answers, knnAnswer{query: id, vec: vec, hits: hits})
	}
	return nil
}

// validateKNN checks one answer: k hits, the query excluded, distances
// ascending.
func validateKNN(query graph.VertexID, hits []serve.Result, k int) error {
	if len(hits) != k {
		return fmt.Errorf("knn %d: %d hits, want %d", query, len(hits), k)
	}
	for i, h := range hits {
		if h.ID == query {
			return fmt.Errorf("knn %d: answer contains the query vertex", query)
		}
		if i > 0 && h.Dist < hits[i-1].Dist {
			return fmt.Errorf("knn %d: distances not ascending at hit %d", query, i)
		}
	}
	return nil
}

func (w *knnWorkload) measure(e *env, d time.Duration, full bool) (*phase, error) {
	rng := rand.New(rand.NewSource(e.cfg.seed + 11))
	p := &phase{}
	fixedDur := d
	if full {
		fixedDur = d / 2
	}
	w.sampleLats.take()
	fixed := w.openLoop(e, knnFixedRate, fixedDur, rng)
	p.opLats = fixed.lats
	p.sampleLats = w.sampleLats.take()
	p.attempted, p.failed = fixed.sent, fixed.failed
	p.work = float64(len(fixed.lats)) / fixed.wall.Seconds()
	p.extra = map[string]float64{
		"knn.gen_late_ms": quantileMs(fixed.genLate, 0.99),
		"knn.queue_s":     float64(fixed.queueNs) / 1e9,
	}
	if len(w.probes) > 0 {
		start := time.Now()
		for _, vec := range w.probes {
			if _, err := w.eng.Index().Search(vec, knnK+1); err != nil {
				return nil, fmt.Errorf("ann probe: %w", err)
			}
		}
		p.extra["ann.search.mean_us"] = float64(time.Since(start).Microseconds()) / float64(len(w.probes))
		w.probes = nil
	}
	if full {
		p.work = w.capacity(e, d-fixedDur, rng)
		w.sampleLats.take()
	}
	fmt.Fprintf(os.Stderr, "e2ebench: knn fixed %.0f/s: %d sent, %d failed, p50 %.2fms p99 %.2fms\n",
		knnFixedRate, fixed.sent, fixed.failed, quantileMs(fixed.lats, 0.5), quantileMs(fixed.lats, 0.99))
	return p, nil
}

func (w *knnWorkload) check(e *env) error {
	if len(w.invalid) > 0 {
		return fmt.Errorf("%d invalid knn answers, first: %w", len(w.invalid), w.invalid[0])
	}
	recall := recallAt(w.eng.Index(), w.answers, knnK)
	fmt.Fprintf(os.Stderr, "e2ebench: knn recall@%d %.3f over %d answers\n", knnK, recall, len(w.answers))
	return checkRecall(recall, len(w.answers), knnRecallFloor)
}

// checkRecall fails an index whose recall is below floor, or a run with
// no answers to check.
func checkRecall(recall float64, answers int, floor float64) error {
	if answers == 0 {
		return fmt.Errorf("no knn answers to check")
	}
	if recall < floor {
		return fmt.Errorf("knn recall@%d %.3f below floor %.2f", knnK, recall, floor)
	}
	return nil
}

// indexReader is the part of the ANN index the recall check reads.
type indexReader interface {
	ForEach(fn func(id uint64, vec []float32) bool)
}

// recallAt is the mean share of each answer's hits that are among the k
// exact nearest indexed vectors to its query embedding, excluding the
// query vertex.
func recallAt(ix indexReader, answers []knnAnswer, k int) float64 {
	if len(answers) == 0 {
		return 0
	}
	type cand struct {
		id uint64
		d  float32
	}
	var total float64
	for _, a := range answers {
		var all []cand
		ix.ForEach(func(id uint64, vec []float32) bool {
			if graph.VertexID(id) != a.query {
				all = append(all, cand{id, sqDist(a.vec, vec)})
			}
			return true
		})
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		truth := make(map[uint64]bool, k)
		for _, c := range all[:min(k, len(all))] {
			truth[c.id] = true
		}
		hit := 0
		for _, h := range a.hits {
			if truth[uint64(h.ID)] {
				hit++
			}
		}
		total += float64(hit) / float64(k)
	}
	return total / float64(len(answers))
}

func sqDist(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
