package tensor

// convPlan is how ConvInto lays a sample out. Phase plane (a, b) of a
// channel holds the zero-bordered image at rows a, a+StrideH, … and
// columns b, b+StrideW, …; pa×pb are the phases some tap reads, each
// hq×wq, so tap (ch, kh, kw) reads phase (kh mod StrideH, kw mod StrideW)
// of channel ch from row kh/StrideH, column kw/StrideW on, and output
// (oy, ox) of every tap sits oy·wq + ox past its tap's start. The
// product is n = (oh−1)·wq + ow columns wide; a plane with no junk
// columns (wq == ow) is computed into the output itself, and an unpadded
// stride-1 image is its own bordered copy.
type convPlan struct {
	oh, ow, pa, pb, hq, wq, n int
	copied                    bool // the sample is copied into phase planes
}

func (g ConvGeom) plan(h, w int) convPlan {
	p := convPlan{pa: min(g.KH, g.StrideH), pb: min(g.KW, g.StrideW)}
	p.oh, p.ow = g.OutSize(h, w)
	p.hq, p.wq = p.oh+(g.KH-1)/g.StrideH, p.ow+(g.KW-1)/g.StrideW
	p.n = (p.oh-1)*p.wq + p.ow
	p.copied = g.StrideH != 1 || g.StrideW != 1 || g.PadH != 0 || g.PadW != 0
	return p
}

// tapStart is where tap (kh, kw) of channel 0 reads its phase planes,
// in elements of one channel's planes: phase (kh mod StrideH, kw mod
// StrideW) from row kh/StrideH, column kw/StrideW on.
func (p convPlan) tapStart(g ConvGeom, kh, kw int) int {
	a, b := kh%g.StrideH, kw%g.StrideW
	return (a*p.pb+b)*p.hq*p.wq + kh/g.StrideH*p.wq + kw/g.StrideW
}

// planes is the element count of the phase planes, 0 when the sample
// is read in place.
func (p convPlan) planes(c int) int {
	if !p.copied {
		return 0
	}
	return c * p.pa * p.pb * p.hq * p.wq
}

// wide is the element count of the bordered-width output, 0 without one.
func (p convPlan) wide(outC int) int {
	if p.wq == p.ow {
		return 0
	}
	return outC * p.n
}

// scratch is the float count of the phase planes, the wide output and
// the offset table of a product k deep.
func (p convPlan) scratch(c, outC, k int) int {
	if p.oh <= 0 || p.ow <= 0 {
		return 0
	}
	return p.planes(c) + p.wide(outC) + k + gemmPrefetchRows
}

// ConvScratchLen returns how many floats of scratch ConvInto takes for a
// c×h×w sample and outC outputs. Use it to size pooled scratch buffers.
func (g ConvGeom) ConvScratchLen(c, h, w, outC int) int {
	return g.plan(h, w).scratch(c, outC, c*g.KH*g.KW)
}

// ConvInto computes one sample of an inference convolution: x is a
// c×h×w image, wt the [outC, c·KH·KW] filters in (ch, kh, kw) order, and
// y receives the [outC, OH·OW] planes post(bias + wt·im2col(x)), ep.Skip
// laid out like y. Every output is the same chain of products in
// ascending k that Im2ColSlice followed by GemmEpilogueInto computes, so
// the two agree bit for bit; but no column matrix is built.
//
// The sample is copied once into zero-bordered planes — for stride s,
// the s×s phase planes of the bordered image that some tap reads, so
// each tap reads a unit-stride run — and the kernels read B through a
// table of offsets, one row start per tap. The product runs on the
// bordered width and the live columns are copied out, with the skip and
// then the ReLU applied on the way when there is a skip, each rounded on
// its own as the kernel epilogue does. scratch holds
// ConvScratchLen(c, h, w, outC) floats with any contents; the sample and
// its bordered copy hold fewer than 2³¹ elements.
func ConvInto(y, x, wt []float32, c, h, w, outC int, g ConvGeom, ep Epilogue, scratch []float32) {
	p := g.plan(h, w)
	k, plane := c*g.KH*g.KW, max(p.oh, 0)*max(p.ow, 0)
	if len(y) < outC*plane || len(x) < c*h*w || len(wt) < outC*k || !ep.fits(outC, plane, plane) ||
		len(scratch) < p.scratch(c, outC, k) {
		panic("tensor: ConvInto operand shorter than its shape")
	}
	if outC == 0 || plane == 0 {
		return
	}
	if k == 0 {
		gemmBiasOnly(y, outC, plane, ep)
		return
	}
	src := x
	if p.copied {
		src, scratch = scratch[:p.planes(c)], scratch[p.planes(c):]
		fillPhases(src, x, c, h, w, g, p)
	}
	wide, scratch := scratch[:p.wide(outC)], scratch[p.wide(outC):]
	// Channel ch+1's taps are channel ch's a channel of planes further.
	boff := offsetsIn(scratch[:k+gemmPrefetchRows])
	taps := g.KH * g.KW
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			boff[kh*g.KW+kw] = int32(p.tapStart(g, kh, kw))
		}
	}
	step, next := int32(p.pa*p.pb*p.hq*p.wq), boff[taps:k]
	for q := range next {
		next[q] = boff[q] + step
	}
	for q := k; q < len(boff); q++ {
		boff[q] = boff[k-1]
	}
	gc := gemmCall{c: y, a: wt, b: src, boff: boff, m: outC, k: k, n: plane, ep: ep}
	if len(wide) == 0 {
		gemm(gc)
		return
	}
	gc.c, gc.n, gc.ep = wide, p.n, ep.wideProduct()
	gemm(gc)
	p.copyOut(y, wide, outC, ep)
}

// wideProduct is what a product on the bordered width applies of ep:
// all of it but, when there is a skip, the skip and the ReLU after it,
// which copyOut applies to the live columns.
func (ep Epilogue) wideProduct() Epilogue {
	if ep.Skip != nil {
		ep.Skip, ep.ReLU = nil, false
	}
	return ep
}

// copyOut copies the live columns of the bordered-width product wide,
// outC rows of p.n, into the [outC, OH·OW] planes of y, applying ep's
// skip and then its ReLU on the way when there is a skip, each rounded
// on its own as the kernel epilogues do.
func (p convPlan) copyOut(y, wide []float32, outC int, ep Epilogue) {
	plane := p.oh * p.ow
	for i := 0; i < outC; i++ {
		out, in := y[i*plane:][:plane], wide[i*p.n:][:p.n]
		for oy := 0; oy < p.oh; oy++ {
			copyShort(out[oy*p.ow:][:p.ow], in[oy*p.wq:])
		}
		if ep.Skip != nil {
			RowPost{Skip: ep.Skip[i*plane:][:plane], ReLU: ep.ReLU}.Into(out, out)
		}
	}
}

// fillPhases writes the c planes of x into dst as p's phase planes: row
// i of plane (ch, a, b) is row i·StrideH+a−PadH of x's plane ch sampled
// at columns j·StrideW+b−PadW, and +0 wherever that falls outside the
// image — the padding, as Im2ColSlice writes it. The planes are cleared
// in one pass and the live runs copied over them: a row of a tile is a
// few floats, so a call per border run costs more than the second write.
// Unpadded, every element a tap reads lies in the image and is copied,
// so there is nothing to clear.
func fillPhases(dst, x []float32, c, h, w int, g ConvGeom, p convPlan) {
	if g.PadH != 0 || g.PadW != 0 {
		clear(dst)
	}
	pq := p.hq * p.wq
	for a := 0; a < p.pa; a++ {
		i0, i1 := clipRange(p.hq, h, g.StrideH, a-g.PadH)
		for b := 0; b < p.pb; b++ {
			j0, j1 := clipRange(p.wq, w, g.StrideW, b-g.PadW)
			if i0 == i1 || j0 == j1 {
				continue
			}
			y0, x0, run := i0*g.StrideH+a-g.PadH, j0*g.StrideW+b-g.PadW, j1-j0
			for ch := 0; ch < c; ch++ {
				out := dst[((ch*p.pa+a)*p.pb+b)*pq:]
				img := x[ch*h*w:]
				for i := i0; i < i1; i++ {
					row, src := out[i*p.wq+j0:][:run], img[(y0+(i-i0)*g.StrideH)*w+x0:]
					if g.StrideW == 1 {
						copyShort(row, src)
						continue
					}
					for j := range row {
						row[j] = src[j*g.StrideW]
					}
				}
			}
		}
	}
}

// copyShort is copy(dst, src) for len(dst) ≤ len(src), by hand when dst
// is under four elements, where the runtime call costs more than the copy.
func copyShort(dst, src []float32) {
	if len(dst) >= 4 {
		copy(dst, src)
		return
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i]
	}
}
