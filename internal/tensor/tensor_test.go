package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Dims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if x.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", x.At(1, 2))
	}
	if x.Data()[1*3+2] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	_ = x.At(2, 0)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must copy storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	a.ScaleInPlace(0.5)
	if a.At(0) != 0.5 || a.At(2) != 1.5 {
		t.Fatalf("ScaleInPlace got %v", a.Data())
	}
	a.Fill(7)
	if a.At(0) != 7 || a.At(2) != 7 {
		t.Fatalf("Fill got %v", a.Data())
	}
	a.Zero()
	if a.At(0) != 0 || a.At(2) != 0 {
		t.Fatalf("Zero got %v", a.Data())
	}
}

// TestShapeMismatchPanics: the products refuse operands whose shapes do not
// compose rather than read past a row.
func TestShapeMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMul":             func() { MatMul(New(2, 3), New(4, 2)) },
		"MatMulABTInto":      func() { MatMulABTInto(New(2, 4), New(2, 3), New(4, 2)) },
		"ConvWeightGradInto": func() { ConvWeightGradInto(New(2, 9), New(2, 4, 4), New(1, 5, 5), 3, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestSumMeanNorms(t *testing.T) {
	x := FromSlice([]float32{-3, 4}, 2)
	if x.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
	if !almostEqual(x.L2Norm(), 5, 1e-9) {
		t.Fatalf("L2Norm = %v", x.L2Norm())
	}
	empty := New(0)
	if empty.MaxAbs() != 0 || empty.L2Norm() != 0 {
		t.Fatal("empty tensor norms must be 0")
	}
}

// naiveMatMul is an index-by-index reference implementation.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandNormal(rng, 0, 1)
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		got, want := MatMul(a, b), naiveMatMul(a, b)
		for i := range got.Data() {
			if !almostEqual(float64(got.Data()[i]), float64(want.Data()[i]), 1e-4) {
				t.Fatalf("trial %d: MatMul mismatch at %d: %v vs %v", trial, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// transpose returns Aᵀ of a 2-D tensor as a new tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	at := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	return at
}

// TestMatMulATBAndABT: both transposed products against index-by-index
// sums — Aᵀ·B, which MatMul forms over an explicit transpose, and A·Bᵀ,
// which MatMulABT forms without one, also fed a transposed pair to give
// Aᵀ·B a second way.
func TestMatMulATBAndABT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randTensor(rng, k, m), randTensor(rng, k, n)
		c, d := randTensor(rng, m, k), randTensor(rng, n, k)
		atb, abt := MatMul(transpose(a), b), MatMulABT(c, d)
		atbABT := MatMulABT(transpose(a), transpose(b))
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var wantATB, wantABT float32
				for p := 0; p < k; p++ {
					wantATB += a.At(p, i) * b.At(p, j)
					wantABT += c.At(i, p) * d.At(j, p)
				}
				if !almostEqual(float64(atb.At(i, j)), float64(wantATB), 1e-4) {
					t.Fatalf("MatMul(Aᵀ, B) mismatch at (%d,%d)", i, j)
				}
				if !almostEqual(float64(atbABT.At(i, j)), float64(wantATB), 1e-4) {
					t.Fatalf("MatMulABT(Aᵀ, Bᵀ) mismatch at (%d,%d)", i, j)
				}
				if !almostEqual(float64(abt.At(i, j)), float64(wantABT), 1e-4) {
					t.Fatalf("MatMulABT mismatch at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// Property: matrix multiplication distributes over addition:
// A·(B+C) == A·B + A·C.
func TestMatMulDistributesOverAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randTensor(rng, m, k)
		b, c := randTensor(rng, k, n), randTensor(rng, k, n)
		bc := b.Clone()
		for i, v := range c.Data() {
			bc.Data()[i] += v
		}
		lhs, ab, ac := MatMul(a, bc), MatMul(a, b), MatMul(a, c)
		for i := range lhs.Data() {
			if !almostEqual(float64(lhs.Data()[i]), float64(ab.Data()[i]+ac.Data()[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{5, 3, 1, 1, 5},
		{5, 3, 1, 0, 3},
		{7, 3, 2, 1, 4},
		{1, 1, 1, 0, 1},
		{8, 5, 2, 2, 4},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// naiveConv performs a direct convolution used to validate Im2Col+MatMul.
func naiveConv(x, w *Tensor, kernel, stride, pad int) *Tensor {
	cIn, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	cOut := w.Dim(0)
	ho, wo := ConvOutSize(h, kernel, stride, pad), ConvOutSize(wd, kernel, stride, pad)
	out := New(cOut, ho, wo)
	for co := 0; co < cOut; co++ {
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				var s float32
				for ci := 0; ci < cIn; ci++ {
					for ky := 0; ky < kernel; ky++ {
						for kx := 0; kx < kernel; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += x.At(ci, iy, ix) * w.At(co, ci, ky, kx)
						}
					}
				}
				out.Set(s, co, oy, ox)
			}
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		cIn, cOut := 1+rng.Intn(3), 1+rng.Intn(3)
		kernel := []int{1, 3, 5}[rng.Intn(3)]
		h, w := kernel+rng.Intn(5), kernel+rng.Intn(5)
		stride, pad := 1+rng.Intn(2), kernel/2
		x := randTensor(rng, cIn, h, w)
		wt := randTensor(rng, cOut, cIn, kernel, kernel)
		cols := Im2Col(x, kernel, stride, pad)
		wm := wt.Reshape(cOut, cIn*kernel*kernel)
		got := MatMul(wm, cols)
		want := naiveConv(x, wt, kernel, stride, pad)
		if got.Size() != want.Size() {
			t.Fatalf("size mismatch %d vs %d", got.Size(), want.Size())
		}
		for i := range got.Data() {
			if !almostEqual(float64(got.Data()[i]), float64(want.Data()[i]), 1e-3) {
				t.Fatalf("trial %d: conv mismatch at %d", trial, i)
			}
		}
	}
}

func TestInitialisers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(10000)
	x.HeInit(rng, 50)
	std := math.Sqrt(2.0 / 50.0)
	var s float64
	for _, v := range x.Data() {
		s += float64(v) * float64(v)
	}
	got := math.Sqrt(s / float64(x.Size()))
	if !almostEqual(got, std, std*0.1) {
		t.Fatalf("He std = %v, want ≈ %v", got, std)
	}
	y := New(10000)
	y.XavierInit(rng, 30, 40)
	limit := math.Sqrt(6.0 / 70.0)
	for _, v := range y.Data() {
		if float64(v) < -limit || float64(v) > limit {
			t.Fatal("Xavier sample outside limits")
		}
	}
	z := New(4)
	z.Fill(3)
	z.Zero()
	if z.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

// TestFromSliceIntoReusesHeader: wrapping storage in a recycled header is the
// allocation-free view its comment promises — the nn layers re-point their
// scratch headers once per training sample and the backbone once per frame.
func TestFromSliceIntoReusesHeader(t *testing.T) {
	data := make([]float32, 24)
	hdr := FromSliceInto(nil, data, 2, 3, 4)
	if a := testing.AllocsPerRun(100, func() { hdr = FromSliceInto(hdr, data[:12], 3, 4) }); a != 0 {
		t.Fatalf("FromSliceInto with a recycled header allocates %v times", a)
	}
	if hdr.Dims() != 2 || hdr.Dim(0) != 3 || hdr.Dim(1) != 4 || &hdr.Data()[0] != &data[0] {
		t.Fatalf("header re-pointed to shape %v", hdr.Shape())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a shape that does not cover the data must panic")
		}
	}()
	FromSliceInto(hdr, data, 5, 5)
}
