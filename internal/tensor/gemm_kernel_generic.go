package tensor

// gemmTileGeneric is the portable micro-kernel, compiled on every
// platform: one 4×nr tile of C = bias + A·B, nr ≤ 64, accumulated in
// place in c. It has the shape of the assembly kernels — whole k loop
// inside, every element one chain in ascending k — but rounds the
// product and the sum separately (the conversions forbid fusing), so it
// is the oracle the FMA tiers are held against, not their bit-equal.
func gemmTileGeneric(c []float32, ldc int, a []float32, lda int, b []float32, ldb, k, nr int, bias []float32) {
	for r := 0; r < 4; r += 2 {
		c0, c1 := c[r*ldc:][:nr], c[(r+1)*ldc:][:nr]
		a0, a1 := a[r*lda:][:k], a[(r+1)*lda:][:k]
		for j := range c0 {
			c0[j], c1[j] = bias[r], bias[r+1]
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			s0, s1, s2, s3 := a0[p], a0[p+1], a0[p+2], a0[p+3]
			t0, t1, t2, t3 := a1[p], a1[p+1], a1[p+2], a1[p+3]
			b0, b1 := b[p*ldb:][:nr], b[(p+1)*ldb:][:nr]
			b2, b3 := b[(p+2)*ldb:][:nr], b[(p+3)*ldb:][:nr]
			for j := range c0 {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				c0[j] = c0[j] + float32(s0*v0) + float32(s1*v1) + float32(s2*v2) + float32(s3*v3)
				c1[j] = c1[j] + float32(t0*v0) + float32(t1*v1) + float32(t2*v2) + float32(t3*v3)
			}
		}
		for ; p < k; p++ {
			s, t := a0[p], a1[p]
			for j, v := range b[p*ldb:][:nr] {
				c0[j] += float32(s * v)
				c1[j] += float32(t * v)
			}
		}
	}
}
