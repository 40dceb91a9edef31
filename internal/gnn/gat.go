package gnn

import (
	"math"
	"math/rand"
)

// GATLayer is a single-head graph attention layer (Veličković et al., the
// paper's ref. [30]) over fixed-fanout sampled neighborhoods: instead of the
// mean aggregator's uniform ⊕, each neighbor's message is weighted by a
// learned attention coefficient
//
//	e_ij   = LeakyReLU(aSᵀ·W·h_i + aNᵀ·W·h_j)
//	α_ij   = softmax_j(e_ij)
//	out_i  = act( W·h_i + Σ_j α_ij · W·h_j + b )
//
// The self term plays the role of GAT's self-loop attention.
type GATLayer struct {
	W    *Matrix // in×out shared projection
	AS   *Matrix // 1×out self attention vector
	AN   *Matrix // 1×out neighbor attention vector
	Bias *Matrix // 1×out
	Act  bool

	GW, GAS, GAN, GBias *Matrix

	// Forward cache.
	xSelf, xNeigh *Matrix
	hs, hn        *Matrix
	alpha         *Matrix // n×fanout
	preMask       *Matrix // LeakyReLU gradient factors, n×fanout
	outMask       *Matrix
	fanout        int

	// Buffers reused across steps.
	out, dz, dHs, dHn, dSelf, dNeigh *Matrix
	scratch                          []float64 // one group's logits or dα
}

// LeakyReLU negative slope.
const gatSlope = 0.2

// NewGATLayer returns a Glorot-initialized attention layer.
func NewGATLayer(in, out int, act bool, rng *rand.Rand) *GATLayer {
	return &GATLayer{
		W:     NewMatrix(in, out).Glorot(rng),
		AS:    NewMatrix(1, out).Glorot(rng),
		AN:    NewMatrix(1, out).Glorot(rng),
		Bias:  NewMatrix(1, out),
		Act:   act,
		GW:    NewMatrix(in, out),
		GAS:   NewMatrix(1, out),
		GAN:   NewMatrix(1, out),
		GBias: NewMatrix(1, out),
	}
}

// Forward combines self embeddings (n×in) with their fanout neighbors
// ((n*fanout)×in) into attention-weighted representations (n×out). The
// returned matrix is the layer's own buffer: the next Forward overwrites
// it.
func (l *GATLayer) Forward(xSelf, xNeigh *Matrix, fanout int) *Matrix {
	if xNeigh.Rows != xSelf.Rows*fanout {
		panic("gnn: GAT neighbor rows != n*fanout")
	}
	n := xSelf.Rows
	o := l.W.Cols
	l.xSelf, l.xNeigh, l.fanout = xSelf, xNeigh, fanout
	l.hs = reuse(l.hs, n, o)
	l.hs.Zero()
	MatMulAdd(l.hs, xSelf, l.W)
	l.hn = reuse(l.hn, n*fanout, o)
	l.hn.Zero()
	MatMulAdd(l.hn, xNeigh, l.W)
	l.alpha = reuse(l.alpha, n, fanout)
	l.preMask = reuse(l.preMask, n, fanout)
	l.out = reuse(l.out, n, o)
	out := l.out
	if cap(l.scratch) < fanout {
		l.scratch = make([]float64, fanout)
	}
	logits := l.scratch[:fanout]
	for i := 0; i < n; i++ {
		hsRow := l.hs.Row(i)
		var sSelf float32
		for k := 0; k < o; k++ {
			sSelf += l.AS.Data[k] * hsRow[k]
		}
		// Attention logits with LeakyReLU.
		maxv := math.Inf(-1)
		for j := 0; j < fanout; j++ {
			hnRow := l.hn.Row(i*fanout + j)
			var sN float32
			for k := 0; k < o; k++ {
				sN += l.AN.Data[k] * hnRow[k]
			}
			e := float64(sSelf + sN)
			if e >= 0 {
				l.preMask.Set(i, j, 1)
			} else {
				e *= gatSlope
				l.preMask.Set(i, j, gatSlope)
			}
			logits[j] = e
			if e > maxv {
				maxv = e
			}
		}
		// Softmax over the group.
		var sum float64
		for j := 0; j < fanout; j++ {
			logits[j] = math.Exp(logits[j] - maxv)
			sum += logits[j]
		}
		orow := out.Row(i)
		copy(orow, hsRow)
		for j := 0; j < fanout; j++ {
			a := float32(logits[j] / sum)
			l.alpha.Set(i, j, a)
			hnRow := l.hn.Row(i*fanout + j)
			for k := 0; k < o; k++ {
				orow[k] += a * hnRow[k]
			}
		}
		for k := 0; k < o; k++ {
			orow[k] += l.Bias.Data[k]
		}
	}
	if l.Act {
		l.outMask = reuse(l.outMask, n, o)
		reluInto(out, l.outMask)
	}
	return out
}

// Backward consumes dL/doutput, accumulates parameter gradients, and
// returns (dL/dxSelf, dL/dxNeigh). The returned matrices are the layer's
// own buffers: the next Backward overwrites them.
func (l *GATLayer) Backward(dOut *Matrix) (dSelf, dNeigh *Matrix) {
	l.BackwardWeights(dOut)
	l.dSelf = reuse(l.dSelf, l.dHs.Rows, l.W.Rows)
	l.dNeigh = reuse(l.dNeigh, l.dHn.Rows, l.W.Rows)
	matMulBTInto(l.dSelf, l.dHs, l.W)
	matMulBTInto(l.dNeigh, l.dHn, l.W)
	return l.dSelf, l.dNeigh
}

// BackwardWeights is Backward for a layer whose inputs are constants, such
// as a first layer over raw features: it accumulates the parameter
// gradients and skips the two input-gradient products through W.
func (l *GATLayer) BackwardWeights(dOut *Matrix) {
	n := l.xSelf.Rows
	o := l.W.Cols
	f := l.fanout
	dz := dOut
	if l.Act {
		l.dz = reuse(l.dz, dOut.Rows, dOut.Cols)
		maskInto(l.dz, dOut, l.outMask)
		dz = l.dz
	}
	l.dHs = reuse(l.dHs, n, o)
	l.dHs.Zero()
	l.dHn = reuse(l.dHn, n*f, o)
	l.dHn.Zero()
	dHs, dHn := l.dHs, l.dHn
	dAlpha := l.scratch[:f]
	for i := 0; i < n; i++ {
		dzRow := dz.Row(i)
		// Bias and self projection.
		for k := 0; k < o; k++ {
			l.GBias.Data[k] += dzRow[k]
			dHs.Row(i)[k] += dzRow[k]
		}
		// dα_ij = <dz_i, hn_ij>; dHn via the attention weights.
		for j := 0; j < f; j++ {
			hnRow := l.hn.Row(i*f + j)
			a := l.alpha.At(i, j)
			var dot float64
			dhnRow := dHn.Row(i*f + j)
			for k := 0; k < o; k++ {
				dot += float64(dzRow[k] * hnRow[k])
				dhnRow[k] += a * dzRow[k]
			}
			dAlpha[j] = dot
		}
		// Softmax backward: de_j = α_j (dα_j - Σ_k α_k dα_k).
		var mix float64
		for j := 0; j < f; j++ {
			mix += float64(l.alpha.At(i, j)) * dAlpha[j]
		}
		hsRow := l.hs.Row(i)
		dhsRow := dHs.Row(i)
		for j := 0; j < f; j++ {
			de := float64(l.alpha.At(i, j)) * (dAlpha[j] - mix)
			dpre := float32(de) * l.preMask.At(i, j)
			// pre = aSᵀhs_i + aNᵀhn_ij.
			hnRow := l.hn.Row(i*f + j)
			dhnRow := dHn.Row(i*f + j)
			for k := 0; k < o; k++ {
				l.GAS.Data[k] += dpre * hsRow[k]
				l.GAN.Data[k] += dpre * hnRow[k]
				dhsRow[k] += dpre * l.AS.Data[k]
				dhnRow[k] += dpre * l.AN.Data[k]
			}
		}
	}
	// Through the shared projection W.
	MatMulATAdd(l.GW, l.xSelf, dHs)
	MatMulATAdd(l.GW, l.xNeigh, dHn)
}

// Params returns the trainable tensors.
func (l *GATLayer) Params() []*Matrix { return []*Matrix{l.W, l.AS, l.AN, l.Bias} }

// Grads returns the gradient tensors, aligned with Params.
func (l *GATLayer) Grads() []*Matrix { return []*Matrix{l.GW, l.GAS, l.GAN, l.GBias} }

// ZeroGrads clears accumulated gradients.
func (l *GATLayer) ZeroGrads() {
	l.GW.Zero()
	l.GAS.Zero()
	l.GAN.Zero()
	l.GBias.Zero()
}

// MultiHeadGAT runs H independent attention heads and concatenates their
// outputs (the standard multi-head formulation; output width = heads × out).
type MultiHeadGAT struct {
	Heads []*GATLayer
}

// NewMultiHeadGAT builds heads independent attention heads of width out
// each.
func NewMultiHeadGAT(heads, in, out int, act bool, rng *rand.Rand) *MultiHeadGAT {
	if heads < 1 {
		panic("gnn: need at least one attention head")
	}
	m := &MultiHeadGAT{Heads: make([]*GATLayer, heads)}
	for h := range m.Heads {
		m.Heads[h] = NewGATLayer(in, out, act, rng)
	}
	return m
}

// OutDim returns the concatenated output width.
func (m *MultiHeadGAT) OutDim() int { return len(m.Heads) * m.Heads[0].W.Cols }

// Forward concatenates every head's output column-wise.
func (m *MultiHeadGAT) Forward(xSelf, xNeigh *Matrix, fanout int) *Matrix {
	per := m.Heads[0].W.Cols
	out := NewMatrix(xSelf.Rows, m.OutDim())
	for h, head := range m.Heads {
		y := head.Forward(xSelf, xNeigh, fanout)
		for i := 0; i < y.Rows; i++ {
			copy(out.Row(i)[h*per:(h+1)*per], y.Row(i))
		}
	}
	return out
}

// Backward splits the concatenated gradient per head and sums the input
// gradients.
func (m *MultiHeadGAT) Backward(dOut *Matrix) (dSelf, dNeigh *Matrix) {
	per := m.Heads[0].W.Cols
	for h, head := range m.Heads {
		dHead := NewMatrix(dOut.Rows, per)
		for i := 0; i < dOut.Rows; i++ {
			copy(dHead.Row(i), dOut.Row(i)[h*per:(h+1)*per])
		}
		ds, dn := head.Backward(dHead)
		if dSelf == nil {
			dSelf, dNeigh = ds, dn
		} else {
			AddInPlace(dSelf, ds)
			AddInPlace(dNeigh, dn)
		}
	}
	return dSelf, dNeigh
}

// Params returns every head's trainable tensors.
func (m *MultiHeadGAT) Params() []*Matrix {
	var out []*Matrix
	for _, h := range m.Heads {
		out = append(out, h.Params()...)
	}
	return out
}

// Grads returns every head's gradient tensors, aligned with Params.
func (m *MultiHeadGAT) Grads() []*Matrix {
	var out []*Matrix
	for _, h := range m.Heads {
		out = append(out, h.Grads()...)
	}
	return out
}

// ZeroGrads clears all heads' gradients.
func (m *MultiHeadGAT) ZeroGrads() {
	for _, h := range m.Heads {
		h.ZeroGrads()
	}
}
