// Package gnn is the "TF-based operators layer" substitute of this
// reproduction (Fig. 2, top): dense float32 tensors with the handful of
// operators GraphSAGE-style training needs (matmul, bias, ReLU, mean
// pooling over fixed-fanout neighbor groups, softmax cross-entropy), manual
// backpropagation, an Adam optimizer, and a mini-batch trainer that consumes
// PlatoD2GL's samplers. Eq. (1) of the paper — aggregate neighbor messages,
// combine with the self embedding — maps to the SAGELayer.
package gnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewMatrixFrom wraps data (retained, not copied) as a rows×cols matrix.
func NewMatrixFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("gnn: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Glorot fills the matrix with Glorot-uniform initial weights.
func (m *Matrix) Glorot(rng *rand.Rand) *Matrix {
	limit := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a shared slice.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// reuse returns m reshaped to rows×cols, keeping its storage when it is
// large enough and allocating a fresh zero matrix otherwise (m may be nil).
// The contents of a reused matrix are whatever it last held. Layers and
// trainers keep their per-step tensors in such slots, so a steady-state
// training step allocates no batch-sized memory.
func reuse(m *Matrix, rows, cols int) *Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// rowView points view at rows [lo, hi) of m without copying and returns
// view; writes through either alias are visible in both.
func rowView(view, m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("gnn: row view [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	*view = Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
	return view
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatMul computes a·b into a fresh (a.Rows × b.Cols) matrix.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulAdd(out, a, b)
	return out
}

// MatMulAdd accumulates a·b into dst (a is m×k, b is k×n, dst m×n).
//
// The kernel is register-blocked by 4 along the shared dimension: each pass
// over a dst row folds in four rows of b, so dst is loaded and stored a
// quarter as often as in the textbook loop. Every row slice is resliced to
// the common length so the compiler drops the inner bounds checks.
func MatMulAdd(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("gnn: matmul shape mismatch (%dx%d)·(%dx%d) into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	k, n := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : i*k+k]
		o := dst.Data[i*n : i*n+n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			b0 := b.Data[p*n : p*n+n][:len(o)]
			b1 := b.Data[(p+1)*n : (p+1)*n+n][:len(o)]
			b2 := b.Data[(p+2)*n : (p+2)*n+n][:len(o)]
			b3 := b.Data[(p+3)*n : (p+3)*n+n][:len(o)]
			for j := range o {
				o[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			b0 := b.Data[p*n : p*n+n][:len(o)]
			for j := range o {
				o[j] += av * b0[j]
			}
		}
	}
}

// MatMulATAdd accumulates aᵀ·b into dst (a is k×m, b is k×n, dst m×n) —
// how backprop adds a batch's weight gradient to the running one. Blocked
// by 4 along the shared dimension k, like MatMulAdd: four rows of a and b
// are folded into each dst row per pass.
func MatMulATAdd(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("gnn: matmulAT shape mismatch (%dx%d)ᵀ·(%dx%d) into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	m, n := a.Cols, b.Cols
	p := 0
	for ; p+4 <= a.Rows; p += 4 {
		a0 := a.Data[p*m : p*m+m]
		a1 := a.Data[(p+1)*m : (p+1)*m+m][:len(a0)]
		a2 := a.Data[(p+2)*m : (p+2)*m+m][:len(a0)]
		a3 := a.Data[(p+3)*m : (p+3)*m+m][:len(a0)]
		b0 := b.Data[p*n : p*n+n]
		b1 := b.Data[(p+1)*n : (p+1)*n+n][:len(b0)]
		b2 := b.Data[(p+2)*n : (p+2)*n+n][:len(b0)]
		b3 := b.Data[(p+3)*n : (p+3)*n+n][:len(b0)]
		for i, x0 := range a0 {
			x1, x2, x3 := a1[i], a2[i], a3[i]
			o := dst.Data[i*n : i*n+n][:len(b0)]
			for j := range o {
				o[j] += x0*b0[j] + x1*b1[j] + x2*b2[j] + x3*b3[j]
			}
		}
	}
	for ; p < a.Rows; p++ {
		a0 := a.Data[p*m : p*m+m]
		b0 := b.Data[p*n : p*n+n]
		for i, x0 := range a0 {
			o := dst.Data[i*n : i*n+n][:len(b0)]
			for j := range o {
				o[j] += x0 * b0[j]
			}
		}
	}
}

// matMulBTInto overwrites dst with a·bᵀ (a is m×k, b is n×k, dst m×n) —
// the input-gradient shape in backprop.
func matMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("gnn: matmulBT shape mismatch (%dx%d)·(%dx%d)ᵀ into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : i*k+k]
		orow := dst.Row(i)
		for j := range orow {
			brow := b.Data[j*k : j*k+k][:len(arow)]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// AddInPlace adds b to a elementwise.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("gnn: AddInPlace shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AddBiasRow adds bias (1×cols) to every row of m in place.
func AddBiasRow(m *Matrix, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != m.Cols {
		panic("gnn: bias shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias.Data[j]
		}
	}
}

// addColSum accumulates the column sums of m into the 1×cols dst (the
// bias gradient).
func addColSum(dst, m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}

// ReluInPlace applies max(0, x) and returns a mask matrix for backprop.
func ReluInPlace(m *Matrix) *Matrix {
	mask := NewMatrix(m.Rows, m.Cols)
	reluInto(m, mask)
	return mask
}

// reluInto applies max(0, x) to m in place and writes its 0/1 mask into
// the same-shaped mask.
func reluInto(m, mask *Matrix) {
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			mask.Data[i] = 0
			m.Data[i] = 0
		}
	}
}

// MulMaskInPlace multiplies m by a 0/1 mask elementwise (ReLU backward).
func MulMaskInPlace(m, mask *Matrix) {
	if m.Rows != mask.Rows || m.Cols != mask.Cols {
		panic("gnn: mask shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] *= mask.Data[i]
	}
}

// maskInto overwrites dst with src·mask elementwise (ReLU backward into a
// reused buffer, leaving src intact).
func maskInto(dst, src, mask *Matrix) {
	if src.Rows != mask.Rows || src.Cols != mask.Cols || len(dst.Data) != len(src.Data) {
		panic("gnn: mask shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] = v * mask.Data[i]
	}
}

// MeanPool groups the rows of child ((n*fanout)×d) into n groups of fanout
// consecutive rows and returns their means (n×d) — the ⊕ neighbor
// aggregation of Eq. (1) with a mean aggregator.
func MeanPool(child *Matrix, fanout int) *Matrix {
	if fanout <= 0 || child.Rows%fanout != 0 {
		panic(fmt.Sprintf("gnn: MeanPool fanout %d does not divide %d rows", fanout, child.Rows))
	}
	out := NewMatrix(child.Rows/fanout, child.Cols)
	meanPoolInto(out, child, fanout)
	return out
}

// meanPoolInto overwrites dst (n×d) with MeanPool(child, fanout).
func meanPoolInto(dst, child *Matrix, fanout int) {
	if fanout <= 0 || dst.Rows*fanout != child.Rows || dst.Cols != child.Cols {
		panic(fmt.Sprintf("gnn: MeanPool of %dx%d by %d into %dx%d", child.Rows, child.Cols, fanout, dst.Rows, dst.Cols))
	}
	dst.Zero()
	inv := 1 / float32(fanout)
	for i := 0; i < dst.Rows; i++ {
		orow := dst.Row(i)
		for j := 0; j < fanout; j++ {
			crow := child.Row(i*fanout + j)[:len(orow)]
			for k, v := range crow {
				orow[k] += v * inv
			}
		}
	}
}

// meanPoolBackwardInto scatters the pooled gradient dPooled (n×d) back to
// the child rows, overwriting dst ((n*fanout)×d).
func meanPoolBackwardInto(dst, dPooled *Matrix, fanout int) {
	if dst.Rows != dPooled.Rows*fanout || dst.Cols != dPooled.Cols {
		panic("gnn: MeanPoolBackward shape mismatch")
	}
	inv := 1 / float32(fanout)
	for i := 0; i < dPooled.Rows; i++ {
		drow := dPooled.Row(i)
		for j := 0; j < fanout; j++ {
			orow := dst.Row(i*fanout + j)[:len(drow)]
			for k, v := range drow {
				orow[k] = v * inv
			}
		}
	}
}

// gradFloor is the smallest class probability that enters the softmax
// gradient. Smaller ones, the wrong classes of a confidently classified
// row, are flushed to zero. At that size they cannot move a weight past
// Adam's ε, and propagated back through the layers they turn into
// subnormal floats, which the CPU multiplies many times slower: without
// the flush a converged model's backward pass slows several-fold.
const gradFloor = 0x1p-64

// SoftmaxCrossEntropy computes the mean cross-entropy of logits (n×classes)
// against integer labels, returning the loss and dL/dlogits.
func SoftmaxCrossEntropy(logits *Matrix, labels []int32) (float64, *Matrix) {
	grad := NewMatrix(logits.Rows, logits.Cols)
	return softmaxCrossEntropyInto(grad, logits, labels), grad
}

// softmaxCrossEntropyInto is SoftmaxCrossEntropy writing dL/dlogits into
// the same-shaped grad.
func softmaxCrossEntropyInto(grad, logits *Matrix, labels []int32) float64 {
	if len(labels) != logits.Rows {
		panic("gnn: label count mismatch")
	}
	n := logits.Rows
	loss := 0.0
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		lbl := int(labels[i])
		loss += logSum - float64(row[lbl]-maxv)
		grow := grad.Row(i)
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			if p < gradFloor {
				p = 0
			}
			if j == lbl {
				p -= 1
			}
			grow[j] = p * invN
		}
	}
	return loss / float64(n)
}

// Argmax returns the per-row argmax of m.
func Argmax(m *Matrix) []int32 {
	out := make([]int32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bv := 0, row[0]
		for j, v := range row[1:] {
			if v > bv {
				best, bv = j+1, v
			}
		}
		out[i] = int32(best)
	}
	return out
}

// VStack concatenates a and b row-wise.
func VStack(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("gnn: VStack column mismatch")
	}
	out := NewMatrix(a.Rows+b.Rows, a.Cols)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// SliceRows returns rows [lo, hi) of m as a copy.
func SliceRows(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("gnn: SliceRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := NewMatrix(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// MaxPool groups the rows of child ((n*fanout)×d) into n groups and takes
// the elementwise maximum — GraphSAGE's pooling aggregator alternative to
// the mean. The returned argmax matrix records, per output cell, which row
// within the group supplied the max (for backprop).
func MaxPool(child *Matrix, fanout int) (*Matrix, *Matrix) {
	if fanout <= 0 || child.Rows%fanout != 0 {
		panic(fmt.Sprintf("gnn: MaxPool fanout %d does not divide %d rows", fanout, child.Rows))
	}
	n := child.Rows / fanout
	out := NewMatrix(n, child.Cols)
	arg := NewMatrix(n, child.Cols)
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		arow := arg.Row(i)
		copy(orow, child.Row(i*fanout))
		for j := 1; j < fanout; j++ {
			crow := child.Row(i*fanout + j)
			for k, v := range crow {
				if v > orow[k] {
					orow[k] = v
					arow[k] = float32(j)
				}
			}
		}
	}
	return out, arg
}

// MaxPoolBackward routes the pooled gradient to the argmax rows.
func MaxPoolBackward(dPooled, arg *Matrix, fanout int) *Matrix {
	out := NewMatrix(dPooled.Rows*fanout, dPooled.Cols)
	for i := 0; i < dPooled.Rows; i++ {
		drow := dPooled.Row(i)
		arow := arg.Row(i)
		for k, v := range drow {
			j := int(arow[k])
			out.Row(i*fanout + j)[k] = v
		}
	}
	return out
}

// Dropout zeroes each element with probability p (training-time
// regularization), scaling survivors by 1/(1-p) so expectations match
// inference. Returns the mask (already scaled) for backprop via
// MulMaskInPlace.
func Dropout(m *Matrix, p float64, rng *rand.Rand) *Matrix {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("gnn: dropout p=%v out of [0,1)", p))
	}
	mask := NewMatrix(m.Rows, m.Cols)
	scale := float32(1 / (1 - p))
	for i := range m.Data {
		if rng.Float64() >= p {
			mask.Data[i] = scale
			m.Data[i] *= scale
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}
