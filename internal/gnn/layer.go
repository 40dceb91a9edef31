package gnn

import (
	"math"
	"math/rand"
)

// SAGELayer is one GraphSAGE layer implementing Eq. (1) with a mean
// aggregator:
//
//	h_out(v) = act( h(v)·Wself + mean_{u∈N(v)} h(u)·Wneigh + b )
//
// g is the combine step, ⊕ the mean pool (computed by the caller with
// MeanPool), and f the identity message function.
type SAGELayer struct {
	Wself, Wneigh *Matrix // in×out
	Bias          *Matrix // 1×out
	Act           bool    // apply ReLU

	// Gradients, accumulated by Backward.
	GWself, GWneigh, GBias *Matrix

	// Forward cache.
	xSelf, xNeigh *Matrix
	mask          *Matrix

	// Buffers reused across steps: the forward output, the masked output
	// gradient and the input gradients.
	out, dz, dSelf, dNeigh *Matrix
}

// NewSAGELayer returns a Glorot-initialized layer.
func NewSAGELayer(in, out int, act bool, rng *rand.Rand) *SAGELayer {
	return &SAGELayer{
		Wself:   NewMatrix(in, out).Glorot(rng),
		Wneigh:  NewMatrix(in, out).Glorot(rng),
		Bias:    NewMatrix(1, out),
		Act:     act,
		GWself:  NewMatrix(in, out),
		GWneigh: NewMatrix(in, out),
		GBias:   NewMatrix(1, out),
	}
}

// Forward combines the self embeddings (n×in) with the pooled neighbor
// embeddings (n×in) into the next representations (n×out), caching
// intermediates for Backward. The returned matrix is the layer's own
// buffer: the next Forward overwrites it.
func (l *SAGELayer) Forward(xSelf, xNeigh *Matrix) *Matrix {
	l.xSelf, l.xNeigh = xSelf, xNeigh
	z := reuse(l.out, xSelf.Rows, l.Wself.Cols)
	l.out = z
	z.Zero()
	MatMulAdd(z, xSelf, l.Wself)
	MatMulAdd(z, xNeigh, l.Wneigh)
	AddBiasRow(z, l.Bias)
	if l.Act {
		l.mask = reuse(l.mask, z.Rows, z.Cols)
		reluInto(z, l.mask)
	}
	return z
}

// Backward consumes dL/doutput and returns (dL/dxSelf, dL/dxNeigh),
// accumulating the weight gradients. The returned matrices are the layer's
// own buffers: the next Backward overwrites them.
func (l *SAGELayer) Backward(dOut *Matrix) (dSelf, dNeigh *Matrix) {
	dz := l.weightGrads(dOut)
	l.dSelf = reuse(l.dSelf, dz.Rows, l.Wself.Rows)
	l.dNeigh = reuse(l.dNeigh, dz.Rows, l.Wneigh.Rows)
	matMulBTInto(l.dSelf, dz, l.Wself)
	matMulBTInto(l.dNeigh, dz, l.Wneigh)
	return l.dSelf, l.dNeigh
}

// BackwardWeights is Backward for a layer whose inputs are constants, such
// as a first layer over raw features: it accumulates the weight gradients
// and skips the two input-gradient products, a third of the layer's
// multiply-adds.
func (l *SAGELayer) BackwardWeights(dOut *Matrix) { l.weightGrads(dOut) }

// weightGrads accumulates the weight gradients and returns dL/dz, the
// output gradient behind the ReLU.
func (l *SAGELayer) weightGrads(dOut *Matrix) *Matrix {
	dz := dOut
	if l.Act {
		l.dz = reuse(l.dz, dOut.Rows, dOut.Cols)
		maskInto(l.dz, dOut, l.mask)
		dz = l.dz
	}
	MatMulATAdd(l.GWself, l.xSelf, dz)
	MatMulATAdd(l.GWneigh, l.xNeigh, dz)
	addColSum(l.GBias, dz)
	return dz
}

// Params returns the trainable tensors.
func (l *SAGELayer) Params() []*Matrix { return []*Matrix{l.Wself, l.Wneigh, l.Bias} }

// Grads returns the gradient tensors, aligned with Params.
func (l *SAGELayer) Grads() []*Matrix { return []*Matrix{l.GWself, l.GWneigh, l.GBias} }

// ZeroGrads clears the accumulated gradients.
func (l *SAGELayer) ZeroGrads() {
	l.GWself.Zero()
	l.GWneigh.Zero()
	l.GBias.Zero()
}

// Adam is a standard Adam optimizer over a set of tensors.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float32
}

// NewAdam returns an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// AdamState is the serializable optimizer state: the step count and both
// moment vectors, aligned with the parameter tensors Step was called with.
// Checkpoints carry it so a resumed training session continues the exact
// update trajectory instead of restarting the moments from zero.
type AdamState struct {
	T    int
	M, V [][]float32
}

// State deep-copies the optimizer state. An optimizer that has not stepped
// yet returns a zero state (T == 0, nil moments).
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t}
	if a.m != nil {
		st.M = make([][]float32, len(a.m))
		st.V = make([][]float32, len(a.v))
		for i := range a.m {
			st.M[i] = append([]float32(nil), a.m[i]...)
			st.V[i] = append([]float32(nil), a.v[i]...)
		}
	}
	return st
}

// SetState restores a previously captured state, deep-copying the moment
// vectors. A zero state resets the optimizer to fresh. Callers are
// responsible for matching the state to the parameter set (the checkpoint
// layer validates shapes before calling this).
func (a *Adam) SetState(st AdamState) {
	a.t = st.T
	if st.M == nil {
		a.m, a.v = nil, nil
		return
	}
	a.m = make([][]float32, len(st.M))
	a.v = make([][]float32, len(st.V))
	for i := range st.M {
		a.m[i] = append([]float32(nil), st.M[i]...)
		a.v[i] = append([]float32(nil), st.V[i]...)
	}
}

// Step applies one update to params from grads (aligned slices of tensors).
func (a *Adam) Step(params, grads []*Matrix) {
	if a.m == nil {
		a.m = make([][]float32, len(params))
		a.v = make([][]float32, len(params))
		for i, p := range params {
			a.m[i] = make([]float32, len(p.Data))
			a.v[i] = make([]float32, len(p.Data))
		}
	}
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i].Data
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			gj := float64(g[j])
			m[j] = float32(a.Beta1)*m[j] + float32(1-a.Beta1)*float32(gj)
			v[j] = float32(a.Beta2)*v[j] + float32(1-a.Beta2)*float32(gj*gj)
			mhat := float64(m[j]) / b1c
			vhat := float64(v[j]) / b2c
			p.Data[j] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}
