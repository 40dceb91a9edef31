package gnn

import (
	"fmt"
	"math/rand"

	"platod2gl/internal/graph"
	"platod2gl/internal/view"
)

// GATModel is a two-layer graph-attention node classifier: the same
// sample-gather-aggregate pipeline as Model, with learned attention over
// each neighborhood instead of mean pooling. Both hops share one fanout F
// so each layer runs as a single joint forward over [seeds; hop1].
type GATModel struct {
	L1, L2 *GATLayer
	InDim  int
	Hidden int
	Out    int
}

// NewGATModel builds a Glorot-initialized 2-layer attention model.
func NewGATModel(inDim, hidden, classes int, rng *rand.Rand) *GATModel {
	return &GATModel{
		L1:     NewGATLayer(inDim, hidden, true, rng),
		L2:     NewGATLayer(hidden, classes, false, rng),
		InDim:  inDim,
		Hidden: hidden,
		Out:    classes,
	}
}

// Params returns all trainable tensors.
func (m *GATModel) Params() []*Matrix { return append(m.L1.Params(), m.L2.Params()...) }

// Grads returns all gradient tensors.
func (m *GATModel) Grads() []*Matrix { return append(m.L1.Grads(), m.L2.Grads()...) }

// ZeroGrads clears gradients.
func (m *GATModel) ZeroGrads() {
	m.L1.ZeroGrads()
	m.L2.ZeroGrads()
}

// GATTrainer drives mini-batch attention-GNN training against a GraphView.
type GATTrainer struct {
	Model *GATModel
	View  view.GraphView
	Opt   *Adam
	Rel   graph.EdgeType
	// Fanout applies to both hops.
	Fanout int

	work gatWork
}

// gatWork holds a GATTrainer's per-step tensors so that steps reuse them.
// The Matrix values are row views into the batch or into h1.
type gatWork struct {
	selfX, neighX, h1Seeds, h1Hop1 Matrix
	dLogits, dH1                   *Matrix
}

// NewGATTrainer wires an attention trainer to a graph view.
func NewGATTrainer(model *GATModel, v view.GraphView, rel graph.EdgeType, fanout int, lr float64) *GATTrainer {
	return &GATTrainer{
		Model:  model,
		View:   v,
		Opt:    NewAdam(lr),
		Rel:    rel,
		Fanout: fanout,
	}
}

// SampleBatch expands seeds two hops (both at Fanout) and gathers features
// for all three node sets in one view call, plus the seeds' labels.
func (t *GATTrainer) SampleBatch(seeds []graph.VertexID) (*Batch, error) {
	layers, err := t.View.SampleSubgraph(seeds, graph.MetaPath{t.Rel, t.Rel}, []int{t.Fanout, t.Fanout})
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
	return newBatch(seeds, hop1, hop2, t.Fanout, t.Fanout, dim, x, labels), nil
}

// Forward runs the 2-layer attention model, returning seed logits. Layer 1
// attends jointly for [seeds; hop1] over their raw neighbor rows
// [hop1; hop2]; layer 2 attends for the seeds over the hop-1 hidden states.
// Both layer-1 inputs are row views of the batch; the logits are the
// model's own buffer, overwritten by the next Forward.
func (t *GATTrainer) Forward(b *Batch) *Matrix {
	w := &t.work
	nS, n := len(b.Seeds), len(b.Seeds)+len(b.Hop1)
	h1 := t.Model.L1.Forward(rowView(&w.selfX, b.X, 0, n), rowView(&w.neighX, b.X, nS, b.X.Rows), t.Fanout)
	return t.Model.L2.Forward(rowView(&w.h1Seeds, h1, 0, nS), rowView(&w.h1Hop1, h1, nS, n), t.Fanout)
}

// TrainStep runs one forward/backward/update pass, returning the loss.
func (t *GATTrainer) TrainStep(b *Batch) float64 {
	t.Model.ZeroGrads()
	logits := t.Forward(b)
	w := &t.work
	w.dLogits = reuse(w.dLogits, logits.Rows, logits.Cols)
	loss := softmaxCrossEntropyInto(w.dLogits, logits, b.Labels)
	dH1Seeds, dH1Hop1 := t.Model.L2.Backward(w.dLogits)
	w.dH1 = reuse(w.dH1, dH1Seeds.Rows+dH1Hop1.Rows, dH1Seeds.Cols)
	copy(w.dH1.Data, dH1Seeds.Data)
	copy(w.dH1.Data[len(dH1Seeds.Data):], dH1Hop1.Data)
	// Features are constants, so layer 1 needs only its weight gradients.
	t.Model.L1.BackwardWeights(w.dH1)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// Accuracy evaluates classification accuracy on the given seeds.
func (t *GATTrainer) Accuracy(seeds []graph.VertexID) (float64, error) {
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

// TrainEpoch shuffles seeds and trains mini-batches, returning mean loss.
func (t *GATTrainer) TrainEpoch(epoch int, seeds []graph.VertexID, batchSize int, rng *rand.Rand) (EpochResult, error) {
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
