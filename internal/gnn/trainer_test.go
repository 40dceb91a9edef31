package gnn

import (
	"math/rand"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// testView wraps store+attrs as the GraphView trainers consume, with the
// sampler settings the trainers used to hardcode.
func testView(store storage.TopologyStore, attrs *kvstore.Store, parallelism int, seed int64) view.GraphView {
	return view.NewLocal(store, attrs, sampler.Options{Parallelism: parallelism, Seed: seed})
}

// mustBatch samples a batch from a local view, failing the test on error.
func mustBatch(t testing.TB, sample func([]graph.VertexID) (*Batch, error), seeds []graph.VertexID) *Batch {
	t.Helper()
	b, err := sample(seeds)
	if err != nil {
		t.Fatalf("SampleBatch: %v", err)
	}
	return b
}

// mustEpoch runs one epoch, failing the test on error.
func mustEpoch(t testing.TB, f func() (EpochResult, error)) EpochResult {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatalf("TrainEpoch: %v", err)
	}
	return res
}

// mustAccuracy evaluates accuracy, failing the test on error.
func mustAccuracy(t testing.TB, f func([]graph.VertexID) (float64, error), seeds []graph.VertexID) float64 {
	t.Helper()
	acc, err := f(seeds)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	return acc
}

// buildClassGraph creates a small homophilous graph: vertices of the same
// class link to each other, so neighbor aggregation is informative.
func buildClassGraph(t testing.TB, n int, classes int) (*storage.DynamicStore, *kvstore.Store, []graph.VertexID) {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 32}})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, uint64(n), 8, classes, 0.3, 1)
	rng := rand.New(rand.NewSource(2))
	// Link each vertex to 6 random same-class vertices.
	byClass := make([][]graph.VertexID, classes)
	ids := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		id := graph.MakeVertexID(0, uint64(i))
		ids[i] = id
		l, _ := attrs.Label(id)
		byClass[l] = append(byClass[l], id)
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		l, _ := attrs.Label(id)
		peers := byClass[l]
		for j := 0; j < 6; j++ {
			store.AddEdge(graph.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	return store, attrs, ids
}

func TestModelForwardShapes(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 100, 3)
	rng := rand.New(rand.NewSource(3))
	model := NewModel(8, 16, 3, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 4, 3, 0.01)
	b := mustBatch(t, tr.SampleBatch, ids[:10])
	if len(b.Hop1) != 40 || len(b.Hop2) != 120 {
		t.Fatalf("hop sizes = %d/%d", len(b.Hop1), len(b.Hop2))
	}
	logits := tr.Forward(b)
	if logits.Rows != 10 || logits.Cols != 3 {
		t.Fatalf("logits shape = %dx%d", logits.Rows, logits.Cols)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 300, 3)
	rng := rand.New(rand.NewSource(5))
	model := NewModel(8, 16, 3, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 5, 5, 0.01)

	initial := tr.Loss(mustBatch(t, tr.SampleBatch, ids[:64]))
	var last EpochResult
	for e := 0; e < 5; e++ {
		e := e
		last = mustEpoch(t, func() (EpochResult, error) { return tr.TrainEpoch(e, ids, 32, rng) })
	}
	if last.MeanLoss >= initial*0.7 {
		t.Fatalf("loss did not drop: initial %.4f, final %.4f", initial, last.MeanLoss)
	}
}

func TestTrainingReachesUsefulAccuracy(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 400, 4)
	rng := rand.New(rand.NewSource(6))
	model := NewModel(8, 24, 4, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 5, 5, 0.02)
	train, test := ids[:300], ids[300:]
	for e := 0; e < 8; e++ {
		e := e
		mustEpoch(t, func() (EpochResult, error) { return tr.TrainEpoch(e, train, 32, rng) })
	}
	acc := mustAccuracy(t, tr.Accuracy, test)
	if acc < 0.6 { // random = 0.25
		t.Fatalf("test accuracy %.3f, want >= 0.6", acc)
	}
}

func TestDynamicGraphUpdatesReflectInSampling(t *testing.T) {
	// A dynamic trainer must see topology changes immediately: after
	// rewiring a vertex's edges, its sampled neighborhood changes.
	store, attrs, _ := buildClassGraph(t, 50, 2)
	rng := rand.New(rand.NewSource(7))
	model := NewModel(8, 8, 2, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 8, 2, 0.01)
	seed := graph.MakeVertexID(0, 0)

	before := mustBatch(t, tr.SampleBatch, []graph.VertexID{seed})
	// Rewire: remove all edges of seed, add one to a sentinel vertex.
	ids, _ := store.Neighbors(seed, 0)
	for _, dst := range ids {
		store.DeleteEdge(seed, dst, 0)
	}
	sentinel := graph.MakeVertexID(0, 49)
	store.AddEdge(graph.Edge{Src: seed, Dst: sentinel, Weight: 1})

	after := mustBatch(t, tr.SampleBatch, []graph.VertexID{seed})
	for _, n := range after.Hop1 {
		if n != sentinel {
			t.Fatalf("sampled stale neighbor %v after rewiring", n)
		}
	}
	_ = before
}

func TestEpochResultString(t *testing.T) {
	r := EpochResult{Epoch: 2, MeanLoss: 0.5, Batches: 3}
	if r.String() != "epoch 2: mean loss 0.5000 over 3 batches" {
		t.Fatalf("String = %q", r.String())
	}
}

// TestTrainStepAllocsIndependentOfBatch: a steady-state TrainStep reuses
// the trainer's workspace, so it allocates a small constant number of
// objects whatever the batch size.
func TestTrainStepAllocsIndependentOfBatch(t *testing.T) {
	store, attrs, ids := buildClassGraph(t, 600, 4)
	tr := NewTrainer(NewModel(8, 16, 4, rand.New(rand.NewSource(5))), testView(store, attrs, 2, 1), 0, 10, 5, 0.01)
	var allocs []float64
	for _, n := range []int{8, 64, 256} {
		batch := mustBatch(t, tr.SampleBatch, ids[:n])
		tr.TrainStep(batch) // size the workspace
		allocs = append(allocs, testing.AllocsPerRun(10, func() { tr.TrainStep(batch) }))
	}
	for i, a := range allocs {
		if a > 4 || a != allocs[0] {
			t.Fatalf("TrainStep allocations per batch size = %v (index %d), want one small constant", allocs, i)
		}
	}
}

func BenchmarkGNNTrainStep(b *testing.B) {
	store, attrs, ids := buildClassGraph(b, 1000, 4)
	rng := rand.New(rand.NewSource(8))
	model := NewModel(8, 32, 4, rng)
	tr := NewTrainer(model, testView(store, attrs, 4, 1), 0, 10, 5, 0.01)
	batch := mustBatch(b, tr.SampleBatch, ids[:64])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainStep(batch)
	}
}
