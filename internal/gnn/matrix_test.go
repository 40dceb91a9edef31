package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMul(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3).Glorot(rng)
	b := NewMatrix(4, 5).Glorot(rng)
	// aᵀ·b via explicit transpose.
	at := NewMatrix(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := NewMatrix(3, 5)
	MatMulATAdd(got, a, b)
	for i := range want.Data {
		if !approx(float64(got.Data[i]), float64(want.Data[i]), 1e-5) {
			t.Fatalf("MatMulAT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// a·bᵀ with b' (5×3).
	b2 := NewMatrix(5, 3).Glorot(rng)
	b2t := NewMatrix(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			b2t.Set(j, i, b2.At(i, j))
		}
	}
	want2 := MatMul(a, b2t)
	got2 := NewMatrix(4, 5)
	matMulBTInto(got2, a, b2)
	for i := range want2.Data {
		if !approx(float64(got2.Data[i]), float64(want2.Data[i]), 1e-5) {
			t.Fatalf("MatMulBT[%d] = %v, want %v", i, got2.Data[i], want2.Data[i])
		}
	}
}

func TestShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"MatMul":   func() { MatMul(a, b) },
		"Bias":     func() { AddBiasRow(a, NewMatrix(1, 5)) },
		"MeanPool": func() { MeanPool(NewMatrix(5, 2), 2) },
		"VStack":   func() { VStack(a, NewMatrix(2, 4)) },
		"From":     func() { NewMatrixFrom(2, 2, []float32{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestReluAndMask(t *testing.T) {
	m := NewMatrixFrom(1, 4, []float32{-1, 2, -3, 4})
	mask := ReluInPlace(m)
	if m.Data[0] != 0 || m.Data[1] != 2 || m.Data[2] != 0 || m.Data[3] != 4 {
		t.Fatalf("relu = %v", m.Data)
	}
	g := NewMatrixFrom(1, 4, []float32{10, 10, 10, 10})
	MulMaskInPlace(g, mask)
	if g.Data[0] != 0 || g.Data[1] != 10 || g.Data[2] != 0 || g.Data[3] != 10 {
		t.Fatalf("masked grad = %v", g.Data)
	}
}

func TestMeanPoolRoundTrip(t *testing.T) {
	child := NewMatrixFrom(4, 2, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	pooled := MeanPool(child, 2)
	if pooled.Rows != 2 || pooled.At(0, 0) != 2 || pooled.At(0, 1) != 3 ||
		pooled.At(1, 0) != 6 || pooled.At(1, 1) != 7 {
		t.Fatalf("MeanPool = %v", pooled.Data)
	}
	back := NewMatrix(pooled.Rows*2, pooled.Cols)
	meanPoolBackwardInto(back, pooled, 2)
	if back.Rows != 4 || back.At(0, 0) != 1 || back.At(3, 1) != 3.5 {
		t.Fatalf("MeanPoolBackward = %v", back.Data)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	// Perfectly confident correct logits: loss near zero.
	logits := NewMatrixFrom(2, 3, []float32{100, 0, 0, 0, 100, 0})
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 1})
	if loss > 1e-6 {
		t.Fatalf("confident loss = %v", loss)
	}
	if !approx(float64(grad.At(0, 0)), 0, 1e-6) {
		t.Fatalf("grad = %v", grad.Data)
	}
	// Uniform logits: loss = ln(3).
	logits = NewMatrix(1, 3)
	loss, _ = SoftmaxCrossEntropy(logits, []int32{2})
	if !approx(loss, math.Log(3), 1e-6) {
		t.Fatalf("uniform loss = %v, want ln3", loss)
	}
}

func TestSoftmaxGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := NewMatrix(3, 4).Glorot(rng)
	labels := []int32{1, 3, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if !approx(numeric, float64(grad.Data[i]), 1e-3) {
			t.Fatalf("grad[%d]: numeric %v vs analytic %v", i, numeric, grad.Data[i])
		}
	}
}

func TestArgmax(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float32{1, 5, 2, 9, 0, 3})
	got := Argmax(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v", got)
	}
}

func TestVStackSliceRows(t *testing.T) {
	a := NewMatrixFrom(1, 2, []float32{1, 2})
	b := NewMatrixFrom(2, 2, []float32{3, 4, 5, 6})
	s := VStack(a, b)
	if s.Rows != 3 || s.At(2, 1) != 6 {
		t.Fatalf("VStack = %v", s.Data)
	}
	part := SliceRows(s, 1, 3)
	if part.Rows != 2 || part.At(0, 0) != 3 || part.At(1, 1) != 6 {
		t.Fatalf("SliceRows = %v", part.Data)
	}
}

func TestSAGELayerGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewSAGELayer(3, 2, true, rng)
	xs := NewMatrix(4, 3).Glorot(rng)
	xn := NewMatrix(4, 3).Glorot(rng)
	labels := []int32{0, 1, 0, 1}

	lossOf := func() float64 {
		out := l.Forward(xs, xn)
		loss, _ := SoftmaxCrossEntropy(out, labels)
		return loss
	}
	l.ZeroGrads()
	out := l.Forward(xs, xn)
	_, dOut := SoftmaxCrossEntropy(out, labels)
	dXs, dXn := l.Backward(dOut)

	const h = 1e-3
	check := func(name string, param *Matrix, grad *Matrix) {
		for i := range param.Data {
			orig := param.Data[i]
			param.Data[i] = orig + h
			lp := lossOf()
			param.Data[i] = orig - h
			lm := lossOf()
			param.Data[i] = orig
			numeric := (lp - lm) / (2 * h)
			if !approx(numeric, float64(grad.Data[i]), 2e-3) {
				t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", name, i, numeric, grad.Data[i])
			}
		}
	}
	check("Wself", l.Wself, l.GWself)
	check("Wneigh", l.Wneigh, l.GWneigh)
	check("Bias", l.Bias, l.GBias)
	check("xSelf", xs, dXs)
	check("xNeigh", xn, dXn)

	// The weights-only backward a first layer uses must accumulate the
	// same weight gradients.
	l.ZeroGrads()
	out = l.Forward(xs, xn)
	_, dOut = SoftmaxCrossEntropy(out, labels)
	l.BackwardWeights(dOut)
	check("Wself (weights only)", l.Wself, l.GWself)
	check("Wneigh (weights only)", l.Wneigh, l.GWneigh)
	check("Bias (weights only)", l.Bias, l.GBias)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||p - target||^2 via Adam using analytic gradient 2(p-t).
	p := NewMatrixFrom(1, 3, []float32{5, -4, 2})
	target := []float32{1, 1, 1}
	g := NewMatrix(1, 3)
	opt := NewAdam(0.1)
	for step := 0; step < 2000; step++ {
		for i := range p.Data {
			g.Data[i] = 2 * (p.Data[i] - target[i])
		}
		opt.Step([]*Matrix{p}, []*Matrix{g})
	}
	for i := range p.Data {
		if !approx(float64(p.Data[i]), float64(target[i]), 1e-2) {
			t.Fatalf("Adam did not converge: %v", p.Data)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	child := NewMatrixFrom(4, 2, []float32{
		1, 9,
		5, 2,
		0, 0,
		3, 7,
	})
	pooled, arg := MaxPool(child, 2)
	if pooled.Rows != 2 || pooled.At(0, 0) != 5 || pooled.At(0, 1) != 9 ||
		pooled.At(1, 0) != 3 || pooled.At(1, 1) != 7 {
		t.Fatalf("MaxPool = %v", pooled.Data)
	}
	dPooled := NewMatrixFrom(2, 2, []float32{10, 20, 30, 40})
	back := MaxPoolBackward(dPooled, arg, 2)
	want := []float32{
		0, 20, // row 0: col 1 max
		10, 0, // row 1: col 0 max
		0, 0,
		30, 40, // row 3: both maxes
	}
	for i := range want {
		if back.Data[i] != want[i] {
			t.Fatalf("MaxPoolBackward = %v, want %v", back.Data, want)
		}
	}
}

func TestMaxPoolGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	child := NewMatrix(6, 3).Glorot(rng)
	labels := []int32{1, 0}
	lossOf := func() float64 {
		pooled, _ := MaxPool(child, 3)
		loss, _ := SoftmaxCrossEntropy(pooled, labels)
		return loss
	}
	pooled, arg := MaxPool(child, 3)
	_, dPooled := SoftmaxCrossEntropy(pooled, labels)
	dChild := MaxPoolBackward(dPooled, arg, 3)
	const h = 1e-3
	for i := range child.Data {
		orig := child.Data[i]
		child.Data[i] = orig + h
		lp := lossOf()
		child.Data[i] = orig - h
		lm := lossOf()
		child.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if !approx(numeric, float64(dChild.Data[i]), 2e-3) {
			t.Fatalf("dChild[%d]: numeric %v vs analytic %v", i, numeric, dChild.Data[i])
		}
	}
}

func TestMaxPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxPool(NewMatrix(5, 2), 2)
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(100, 100)
	for i := range m.Data {
		m.Data[i] = 1
	}
	mask := Dropout(m, 0.3, rng)
	zeros, kept := 0, 0
	var sum float64
	for i, v := range m.Data {
		if v == 0 {
			zeros++
			if mask.Data[i] != 0 {
				t.Fatal("mask nonzero where output zero")
			}
		} else {
			kept++
			if !approx(float64(v), 1/0.7, 1e-5) {
				t.Fatalf("survivor not scaled: %v", v)
			}
		}
		sum += float64(v)
	}
	frac := float64(zeros) / float64(len(m.Data))
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("dropout rate %.3f, want ~0.30", frac)
	}
	// Expectation preserved: mean stays ~1.
	if mean := sum / float64(len(m.Data)); mean < 0.95 || mean > 1.05 {
		t.Fatalf("mean after dropout = %v", mean)
	}
	// Gradient masking matches forward masking.
	g := NewMatrix(100, 100)
	for i := range g.Data {
		g.Data[i] = 1
	}
	MulMaskInPlace(g, mask)
	for i := range g.Data {
		if (g.Data[i] == 0) != (m.Data[i] == 0) {
			t.Fatal("gradient mask diverges from forward mask")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=1")
		}
	}()
	Dropout(m, 1, rng)
}

// naiveMatMulAT is the textbook aᵀ·b triple loop, kept as the reference
// the blocked kernels are checked against.
func naiveMatMulAT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveMatMul is the textbook a·b triple loop.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveMatMulBT is the textbook a·bᵀ triple loop.
func naiveMatMulBT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func sameMatrix(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !approx(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestKernelsMatchNaive checks the blocked kernels against the textbook
// loops on shapes whose row count and inner dimension are and are not
// multiples of the block size, including empty and 1×1 operands. The
// accumulate forms must add to what dst already holds.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {0, 4, 3}, {4, 0, 3}, {3, 5, 0}, {4, 4, 4}, {8, 16, 32},
		{7, 5, 3}, {5, 7, 2}, {13, 9, 6}, {2, 3, 11}, {66, 64, 32},
	} {
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n)
		a := NewMatrix(sh.m, sh.k).Glorot(rng)
		b := NewMatrix(sh.k, sh.n).Glorot(rng)
		prior := NewMatrix(sh.m, sh.n).Glorot(rng)

		got := prior.Clone()
		MatMulAdd(got, a, b)
		want := naiveMatMul(a, b)
		AddInPlace(want, prior)
		sameMatrix(t, "MatMulAdd "+name, got, want)
		sameMatrix(t, "MatMul "+name, MatMul(a, b), naiveMatMul(a, b))

		// aᵀ·b with a as k'×m' = (m×k) and b as (m×n): shared dim m.
		c := NewMatrix(sh.m, sh.n).Glorot(rng)
		priorT := NewMatrix(sh.k, sh.n).Glorot(rng)
		gotT := priorT.Clone()
		MatMulATAdd(gotT, a, c)
		wantT := naiveMatMulAT(a, c)
		AddInPlace(wantT, priorT)
		sameMatrix(t, "MatMulATAdd "+name, gotT, wantT)

		// a·bᵀ with b as (n×k): shared dim k.
		d := NewMatrix(sh.n, sh.k).Glorot(rng)
		gotBT := NewMatrix(sh.m, sh.n).Glorot(rng) // overwritten, not accumulated
		matMulBTInto(gotBT, a, d)
		sameMatrix(t, "matMulBTInto "+name, gotBT, naiveMatMulBT(a, d))
	}
}
