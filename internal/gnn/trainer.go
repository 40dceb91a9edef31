package gnn

import (
	"fmt"
	"math/rand"

	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// Model is a two-layer GraphSAGE node classifier (Fig. 1's training phase):
// layer 1 lifts raw features to a hidden representation, layer 2 maps to
// class logits. Dynamic GNN training re-samples neighborhoods from the live
// graph every batch, so topology updates are reflected immediately.
type Model struct {
	L1, L2 *SAGELayer
	InDim  int
	Hidden int
	Out    int
}

// NewModel builds a Glorot-initialized 2-layer model.
func NewModel(inDim, hidden, classes int, rng *rand.Rand) *Model {
	return &Model{
		L1:     NewSAGELayer(inDim, hidden, true, rng),
		L2:     NewSAGELayer(hidden, classes, false, rng),
		InDim:  inDim,
		Hidden: hidden,
		Out:    classes,
	}
}

// Params returns all trainable tensors.
func (m *Model) Params() []*Matrix { return append(m.L1.Params(), m.L2.Params()...) }

// Grads returns all gradient tensors.
func (m *Model) Grads() []*Matrix { return append(m.L1.Grads(), m.L2.Grads()...) }

// ZeroGrads clears gradients.
func (m *Model) ZeroGrads() {
	m.L1.ZeroGrads()
	m.L2.ZeroGrads()
}

// Batch is one sampled mini-batch: seeds plus their 2-hop neighborhood and
// gathered features.
type Batch struct {
	Seeds  []graph.VertexID
	Hop1   []graph.VertexID // len(Seeds) * F1
	Hop2   []graph.VertexID // len(Seeds) * F1 * F2
	F1, F2 int

	// X holds every gathered feature row, laid out [seeds; hop1; hop2];
	// XSeeds, XHop1 and XHop2 are row views of it.
	X      *Matrix
	XSeeds *Matrix
	XHop1  *Matrix
	XHop2  *Matrix
	Labels []int32
}

// newBatch wraps the gathered rows x ([seeds; hop1; hop2], dim columns)
// as a batch whose X* matrices share x's storage.
func newBatch(seeds, hop1, hop2 []graph.VertexID, f1, f2, dim int, x []float32, labels []int32) *Batch {
	nS, n1 := len(seeds)*dim, len(hop1)*dim
	return &Batch{
		Seeds: seeds, Hop1: hop1, Hop2: hop2, F1: f1, F2: f2,
		X:      NewMatrixFrom(len(seeds)+len(hop1)+len(hop2), dim, x),
		XSeeds: NewMatrixFrom(len(seeds), dim, x[:nS]),
		XHop1:  NewMatrixFrom(len(hop1), dim, x[nS:nS+n1]),
		XHop2:  NewMatrixFrom(len(hop2), dim, x[nS+n1:]),
		Labels: labels,
	}
}

// Trainer drives mini-batch GNN training against a GraphView — it never
// touches a concrete store, so the same trainer runs over an in-process
// graph (view.Local) or a sharded cluster (view.Cluster).
type Trainer struct {
	Model *Model
	View  view.GraphView
	Opt   *Adam
	// Rel is the relation to expand over both hops.
	Rel graph.EdgeType
	// F1, F2 are the per-hop fanouts.
	F1, F2 int

	work sageWork
}

// sageWork holds a Trainer's per-step tensors so that steps reuse them.
// The Matrix values are row views into the batch or into other buffers.
type sageWork struct {
	selfX, neighSeeds, neighHop1, h1Seeds, h1Hop1, dH1Hop1 Matrix
	neighX, pooled, dLogits, dH1                           *Matrix
}

// NewTrainer wires a trainer to a graph view.
func NewTrainer(model *Model, v view.GraphView, rel graph.EdgeType, f1, f2 int, lr float64) *Trainer {
	return &Trainer{
		Model: model,
		View:  v,
		Opt:   NewAdam(lr),
		Rel:   rel,
		F1:    f1,
		F2:    f2,
	}
}

// SampleBatch expands the seeds two hops and gathers features and labels in
// one view round-trip each (the feature pull covers seeds and both hops in
// a single call, so a remote backend pays one fan-out, not three). Seeds
// without labels get label 0 — callers training on labeled sets should pass
// labeled seeds.
func (t *Trainer) SampleBatch(seeds []graph.VertexID) (*Batch, error) {
	layers, err := t.View.SampleSubgraph(seeds, graph.MetaPath{t.Rel, t.Rel}, []int{t.F1, t.F2})
	if err != nil {
		return nil, fmt.Errorf("gnn: sample subgraph: %w", err)
	}
	hop1, hop2 := layers[0], layers[1]
	dim := t.Model.InDim
	nodes := make([]graph.VertexID, 0, len(seeds)+len(hop1)+len(hop2))
	nodes = append(nodes, seeds...)
	nodes = append(nodes, hop1...)
	nodes = append(nodes, hop2...)
	x, err := t.View.Features(nodes, dim)
	if err != nil {
		return nil, fmt.Errorf("gnn: gather features: %w", err)
	}
	labels, err := t.View.Labels(seeds)
	if err != nil {
		return nil, fmt.Errorf("gnn: gather labels: %w", err)
	}
	return newBatch(seeds, hop1, hop2, t.F1, t.F2, dim, x, labels), nil
}

// Forward runs the 2-layer model on a batch, returning seed logits.
//
// Layer 1 is applied jointly to [seeds; hop1] (self inputs) against their
// pooled children ([hop1 means; hop2 means]); layer 2 then combines the
// seeds' hidden states with the pooled hop-1 hidden states. The self
// inputs are a row view of the batch, and every other tensor lives in the
// trainer's workspace, so the logits are overwritten by the next Forward.
func (t *Trainer) Forward(b *Batch) *Matrix {
	w := &t.work
	nS, n := len(b.Seeds), len(b.Seeds)+len(b.Hop1)
	w.neighX = reuse(w.neighX, n, b.X.Cols)
	meanPoolInto(rowView(&w.neighSeeds, w.neighX, 0, nS), b.XHop1, b.F1)
	meanPoolInto(rowView(&w.neighHop1, w.neighX, nS, n), b.XHop2, b.F2)
	h1 := t.Model.L1.Forward(rowView(&w.selfX, b.X, 0, n), w.neighX)
	w.pooled = reuse(w.pooled, nS, h1.Cols)
	meanPoolInto(w.pooled, rowView(&w.h1Hop1, h1, nS, n), b.F1)
	return t.Model.L2.Forward(rowView(&w.h1Seeds, h1, 0, nS), w.pooled)
}

// TrainStep runs one forward/backward/update pass and returns the batch
// loss.
func (t *Trainer) TrainStep(b *Batch) float64 {
	t.Model.ZeroGrads()
	logits := t.Forward(b)
	w := &t.work
	w.dLogits = reuse(w.dLogits, logits.Rows, logits.Cols)
	loss := softmaxCrossEntropyInto(w.dLogits, logits, b.Labels)
	t.backward(b, w.dLogits)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

func (t *Trainer) backward(b *Batch, dLogits *Matrix) {
	w := &t.work
	nS := len(b.Seeds)
	dH1Seeds, dH1Hop1Pooled := t.Model.L2.Backward(dLogits)
	w.dH1 = reuse(w.dH1, nS+len(b.Hop1), dH1Seeds.Cols)
	copy(w.dH1.Data, dH1Seeds.Data)
	meanPoolBackwardInto(rowView(&w.dH1Hop1, w.dH1, nS, w.dH1.Rows), dH1Hop1Pooled, b.F1)
	// Features are constants, so layer 1 needs only its weight gradients.
	t.Model.L1.BackwardWeights(w.dH1)
}

// Loss computes the batch loss without updating parameters.
func (t *Trainer) Loss(b *Batch) float64 {
	logits := t.Forward(b)
	loss, _ := SoftmaxCrossEntropy(logits, b.Labels)
	return loss
}

// Accuracy evaluates classification accuracy on the given seeds.
func (t *Trainer) Accuracy(seeds []graph.VertexID) (float64, error) {
	if len(seeds) == 0 {
		return 0, nil
	}
	b, err := t.SampleBatch(seeds)
	if err != nil {
		return 0, err
	}
	pred := Argmax(t.Forward(b))
	correct := 0
	for i, p := range pred {
		if p == b.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(seeds)), nil
}

// EpochResult summarizes one training epoch.
type EpochResult struct {
	Epoch    int
	MeanLoss float64
	Batches  int
}

func (e EpochResult) String() string {
	return fmt.Sprintf("epoch %d: mean loss %.4f over %d batches", e.Epoch, e.MeanLoss, e.Batches)
}

// TrainEpoch shuffles the seed set, trains on consecutive mini-batches, and
// returns the mean loss. This is the synchronous loop — sample, fetch,
// train, strictly in series; internal/pipeline overlaps the sampling and
// feature I/O of upcoming batches with the current TrainStep.
func (t *Trainer) TrainEpoch(epoch int, seeds []graph.VertexID, batchSize int, rng *rand.Rand) (EpochResult, error) {
	perm := rng.Perm(len(seeds))
	totalLoss := 0.0
	batches := 0
	for lo := 0; lo+batchSize <= len(perm); lo += batchSize {
		batch := make([]graph.VertexID, batchSize)
		for i := 0; i < batchSize; i++ {
			batch[i] = seeds[perm[lo+i]]
		}
		b, err := t.SampleBatch(batch)
		if err != nil {
			return EpochResult{Epoch: epoch}, err
		}
		totalLoss += t.TrainStep(b)
		batches++
	}
	if batches == 0 {
		return EpochResult{Epoch: epoch}, nil
	}
	return EpochResult{Epoch: epoch, MeanLoss: totalLoss / float64(batches), Batches: batches}, nil
}
