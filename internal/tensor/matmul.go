package tensor

import "fmt"

// The two matrix products: MatMulABTInto is the portable path of the
// convolution weight gradient (ConvWeightGradInto) and defines its bits;
// MatMul, the plain i-k-j loop, is the oracle the tests hold the lowered
// convolution to (MatMul(weights, Im2Col(x)) plus bias is ConvInto's
// definition). Both are serial loops: parallelism lives across frames and
// snippets (internal/parallel), never inside a kernel, so a result cannot
// depend on the worker count. Each product is written float32(x·y): rounded
// before the sum, so no compiler fuses the two (scripts/nofma.sh).

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n), returning a
// new m×n tensor: each element summed from +0 over p ascending, a zero in A
// skipped. The inner loop is ordered i-k-j so B is traversed row-major. It
// panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v · %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	ad, bd, cd := a.data, b.data, c.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
	return c
}

// MatMulABT computes C = A·Bᵀ for A (m×k) and B (n×k), returning m×n.
func MatMulABT(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulABT requires 2-D tensors")
	}
	c := New(a.Dim(0), b.Dim(0))
	MatMulABTInto(c, a, b)
	return c
}

// MatMulABTInto computes dst = A·Bᵀ, reusing dst's storage (m×n,
// overwritten): dot products of A's rows with B's rows, four rows of A at a
// time. Each of the four accumulators is the plain dot product of its own
// row pair — from +0, p ascending, the product rounded before the sum — so
// every element gets the bits a one-at-a-time loop gives it, while the four
// add chains overlap instead of one waiting on itself and B is streamed
// once per four rows of A instead of once per row.
func MatMulABTInto(dst, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		panic("tensor: MatMulABT requires 2-D tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch %v vs %v -> %v", a.shape, b.shape, dst.shape))
	}
	ad, bd, cd := a.data, b.data, dst.data
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := ad[i*k : (i+1)*k]
		a1 := ad[(i+1)*k : (i+2)*k]
		a2 := ad[(i+2)*k : (i+3)*k]
		a3 := ad[(i+3)*k : (i+4)*k]
		for j := 0; j < n; j++ {
			var s0, s1, s2, s3 float32
			for p, bv := range bd[j*k : (j+1)*k] {
				s0 += float32(a0[p] * bv)
				s1 += float32(a1[p] * bv)
				s2 += float32(a2[p] * bv)
				s3 += float32(a3[p] * bv)
			}
			cd[i*n+j], cd[(i+1)*n+j], cd[(i+2)*n+j], cd[(i+3)*n+j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float32
			for p, bv := range bd[j*k : (j+1)*k] {
				s += float32(arow[p] * bv)
			}
			cd[i*n+j] = s
		}
	}
}
