package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/pipeline"
	"platod2gl/internal/view"
)

// Training shape fixed by the workload, never derived from the host.
const (
	trainBatch   = 256
	trainF1      = 10
	trainF2      = 5
	trainDepth   = 4
	trainWorkers = 2
	trainHidden  = 32 // platod2gl-train -hidden default
	trainLR      = 0.02
	trainClasses = 4
	// trainAccFloor is the held-out accuracy the model must reach after the
	// timed epochs; chance is 1/trainClasses.
	trainAccFloor = 0.6
)

// graphSize sizes a labeled homophilous graph.
type graphSize struct {
	nodes      int
	dim        int
	trainSeeds int // labeled seeds trained per epoch
	testSeeds  int // held-out seeds for the accuracy check
	zipfS      float64
	zipfV      float64
	maxDegree  uint64
	degree     int // fixed out-degree when zipfS == 0
}

// labeledGraph is a generated classification graph.
type labeledGraph struct {
	nodes  []graph.VertexID
	events []graph.Event
	feats  []float32
	labels []int32
	dim    int
}

// genLabeledGraph builds the platod2gl-train style graph: class-separated
// features, same-class edges with 25% noise. With zipfS > 0 out-degrees
// follow 1+Zipf(zipfS, zipfV), so hub vertices grow samtrees past one
// leaf.
func genLabeledGraph(sz graphSize, classes int, seed int64) *labeledGraph {
	staging := kvstore.New()
	dataset.AssignFeatures(staging, 0, uint64(sz.nodes), sz.dim, classes, 2.0, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	var zipf *rand.Zipf
	if sz.zipfS > 0 {
		zipf = rand.NewZipf(rng, sz.zipfS, sz.zipfV, sz.maxDegree-1)
	}
	g := &labeledGraph{nodes: make([]graph.VertexID, sz.nodes), dim: sz.dim}
	byClass := make([][]graph.VertexID, classes)
	for i := range g.nodes {
		g.nodes[i] = graph.MakeVertexID(0, uint64(i))
		l, _ := staging.Label(g.nodes[i])
		byClass[l] = append(byClass[l], g.nodes[i])
	}
	for _, id := range g.nodes {
		l, _ := staging.Label(id)
		peers := byClass[l]
		deg := sz.degree
		if zipf != nil {
			deg = 1 + int(zipf.Uint64())
		}
		for j := 0; j < deg; j++ {
			dst := peers[rng.Intn(len(peers))]
			if rng.Intn(4) == 0 {
				dst = g.nodes[rng.Intn(sz.nodes)]
			}
			g.events = append(g.events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: id, Dst: dst, Weight: 1}})
		}
	}
	g.feats = staging.GatherFeatures(g.nodes, sz.dim)
	g.labels = staging.GatherLabels(g.nodes)
	return g
}

// load pushes topology and attributes the way platod2gl-train does.
func (g *labeledGraph) load(c *cluster.Client) error {
	if err := c.ApplyBatch(g.events); err != nil {
		return fmt.Errorf("push edges: %w", err)
	}
	if err := c.SetFeatures(g.nodes, g.dim, g.feats, g.labels); err != nil {
		return fmt.Errorf("push features: %w", err)
	}
	return nil
}

// split returns a shuffled training set and a held-out test set.
func (g *labeledGraph) split(trainN, testN int, seed int64) (train, test []graph.VertexID) {
	perm := rand.New(rand.NewSource(seed + 7)).Perm(len(g.nodes))
	trainN = min(trainN, len(g.nodes)-testN)
	for _, i := range perm[:trainN] {
		train = append(train, g.nodes[i])
	}
	for _, i := range perm[len(perm)-testN:] {
		test = append(test, g.nodes[i])
	}
	return train, test
}

// trainSession is a model, its trainer and the timed wrappers around it.
type trainSession struct {
	trainer *gnn.Trainer
	stepper *timedStepper
	loader  pipeline.Loader
	pm      *pipeline.Metrics
	batches atomic.Int64
}

// newTrainSession wires a GraphSAGE trainer over the cluster the way
// platod2gl-train does by default: a resilient view (3 attempts, transient
// errors only) under the benchmark's timing wrapper.
func newTrainSession(e *env, client *cluster.Client, inDim int, f1, f2 int, seed int64, sampleLats *latencies, stepLats *latencies) *trainSession {
	base := view.NewResilient(view.NewCluster(client, seed), view.ResilientConfig{
		Attempts: 3, Transient: cluster.Transient, Metrics: &view.Metrics{},
	})
	gv := &timedView{inner: base, busy: &e.viewBusy, tr: &e.tr, subLats: sampleLats}
	model := gnn.NewModel(inDim, trainHidden, trainClasses, rand.New(rand.NewSource(seed+2)))
	s := &trainSession{trainer: gnn.NewTrainer(model, gv, 0, f1, f2, trainLR), pm: &pipeline.Metrics{}}
	s.stepper = &timedStepper{inner: s.trainer, tr: &e.tr, lats: stepLats}
	s.loader = func(seeds []graph.VertexID) (*gnn.Batch, error) {
		tr := e.tr.Load()
		id := tr.begin("pipeline.build", s.batches.Add(1))
		b, err := s.trainer.SampleBatch(seeds)
		tr.end(id)
		return b, err
	}
	return s
}

// epoch runs one pipelined epoch; the per-batch interval clock restarts at
// the epoch boundary.
func (s *trainSession) epoch(n int, seeds []graph.VertexID, seed int64) (gnn.EpochResult, error) {
	cfg := pipeline.Config{Depth: trainDepth, Workers: trainWorkers, Retries: 1, Metrics: s.pm}
	s.stepper.lastDone = time.Now()
	return pipeline.TrainEpoch(s.stepper, s.loader, n, seeds, trainBatch, rand.New(rand.NewSource(seed+3+int64(n)*1_000_003)), cfg)
}

type trainWorkload struct {
	size        graphSize
	g           *labeledGraph
	train, test []graph.VertexID
	bc          *benchCluster
	sess        *trainSession
	sampleLats  latencies
	stepLats    latencies
	epochs      int
}

func newTrain(cfg config) *trainWorkload {
	sz := graphSize{nodes: 120_000, dim: 64, trainSeeds: 20_480, testSeeds: 2_048, zipfS: 2.0, zipfV: 1.5, maxDegree: 5_000}
	if cfg.smoke {
		sz = graphSize{nodes: 3_000, dim: 16, trainSeeds: 1_024, testSeeds: 512, zipfS: 2.0, zipfV: 1.5, maxDegree: 600}
	}
	return &trainWorkload{size: sz}
}

func (w *trainWorkload) prepare(e *env) error {
	w.g = genLabeledGraph(w.size, trainClasses, e.cfg.seed)
	w.train, w.test = w.g.split(w.size.trainSeeds, w.size.testSeeds, e.cfg.seed)
	fmt.Fprintf(os.Stderr, "e2ebench: train graph %d vertices, %d edges, %d-d features\n", len(w.g.nodes), len(w.g.events), w.g.dim)
	return nil
}

func (w *trainWorkload) setup(e *env) error {
	bc, err := startCluster(e.clusterConfig(""))
	if err != nil {
		return err
	}
	w.bc, e.bc = bc, bc
	if err := w.g.load(bc.client); err != nil {
		return err
	}
	w.sess = newTrainSession(e, bc.client, w.g.dim, trainF1, trainF2, e.cfg.seed, &w.sampleLats, &w.stepLats)
	return nil
}

func (w *trainWorkload) teardown() {
	if w.bc != nil {
		w.bc.close()
		w.bc = nil
	}
}

func (w *trainWorkload) roots() map[string]bool { return map[string]bool{"train.epoch": true} }

func (w *trainWorkload) measure(e *env, d time.Duration, full bool) (*phase, error) {
	if w.epochs == 0 {
		// One warm-up epoch before any timing.
		if _, err := w.sess.epoch(w.epochs, w.train, e.cfg.seed); err != nil {
			return nil, fmt.Errorf("warm-up epoch: %w", err)
		}
		w.epochs++
		w.sampleLats.take()
		w.stepLats.take()
	}
	p := &phase{}
	pm0 := w.sess.pm.Snapshot()
	start := time.Now()
	var seeds int64
	var rates []float64
	for time.Since(start) < d || len(rates) == 0 {
		tr := e.tr.Load()
		es := time.Now()
		id := tr.begin("train.epoch", int64(w.epochs))
		res, err := w.sess.epoch(w.epochs, w.train, e.cfg.seed)
		tr.end(id)
		w.epochs++
		p.attempted++
		if err != nil {
			p.failed++
			return nil, fmt.Errorf("epoch %d: %w", w.epochs, err)
		}
		n := int64(res.Batches * trainBatch)
		seeds += n
		rates = append(rates, float64(n)/time.Since(es).Seconds())
	}
	p.wall = time.Since(start)
	// The median epoch's throughput: epochs are identical units of work.
	p.work = median(rates)
	p.opLats = w.stepLats.take()
	p.sampleLats = w.sampleLats.take()
	pm := w.sess.pm.Snapshot()
	hits, stalls := pm.PrefetchHits-pm0.PrefetchHits, pm.Stalls-pm0.Stalls
	p.extra = map[string]float64{
		"pipeline.stall_s": float64(pm.StallNanos-pm0.StallNanos) / 1e9,
	}
	if hits+stalls > 0 {
		p.extra["pipeline.hit_rate"] = float64(hits) / float64(hits+stalls)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: train %d epochs, %d seeds in %s, epoch rates %.0f\n", len(rates), seeds, p.wall.Round(time.Millisecond), rates)
	return p, nil
}

func (w *trainWorkload) check(e *env) error {
	acc, err := w.sess.trainer.Accuracy(w.test)
	if err != nil {
		return fmt.Errorf("held-out accuracy: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: held-out accuracy %.3f after %d epochs\n", acc, w.epochs)
	return checkAccuracy(acc, trainAccFloor)
}

// checkAccuracy fails a model whose held-out accuracy is below floor.
func checkAccuracy(acc, floor float64) error {
	if acc < floor {
		return fmt.Errorf("held-out accuracy %.3f below floor %.2f", acc, floor)
	}
	return nil
}
