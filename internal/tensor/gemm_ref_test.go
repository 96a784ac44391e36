package tensor

// The pre-engine serial GEMMs, kept as the correctness oracle for the
// GEMM property tests and as the baseline of the package benchmarks. Do
// not optimise them.

// RefMatMulInto is the reference C = A·B (axpy order, serial).
func RefMatMulInto(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// RefMatMulTransA is the reference C = Aᵀ·B (serial).
func RefMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// RefMatMulTransB is the reference C = A·Bᵀ (serial dot products).
func RefMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
	return c
}
