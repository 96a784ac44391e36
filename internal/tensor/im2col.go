package tensor

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	KH, KW     int // kernel height/width
	StrideH    int
	StrideW    int
	PadH, PadW int // symmetric zero padding
}

// OutSize returns the output spatial size for an input of h×w.
func (g ConvGeom) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*g.PadH-g.KH)/g.StrideH + 1
	ow = (w+2*g.PadW-g.KW)/g.StrideW + 1
	return
}

// ColsLen returns the element count of the im2col matrix for a c×h×w
// image: (c·KH·KW) × (OH·OW). Use it to size pooled scratch buffers.
func (g ConvGeom) ColsLen(c, h, w int) int {
	oh, ow := g.OutSize(h, w)
	return c * g.KH * g.KW * oh * ow
}

// Im2Col unfolds one image x[C,H,W] into a matrix of shape
// [C*KH*KW, OH*OW] so convolution becomes a matrix product with the
// flattened filters. Out-of-bounds positions read as zero (the padding).
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := g.OutSize(h, w)
	cols := New(c*g.KH*g.KW, oh*ow)
	Im2ColSlice(cols.Data, x.Data, c, h, w, g)
	return cols
}

// Im2ColInto is Im2Col writing into a caller-owned matrix of shape
// [C*KH*KW, OH*OW]. Any prior contents are overwritten.
func Im2ColInto(cols, x *Tensor, g ConvGeom) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if cols.Len() != g.ColsLen(c, h, w) {
		panic("tensor: Im2ColInto destination size mismatch")
	}
	Im2ColSlice(cols.Data, x.Data, c, h, w, g)
}

// Im2ColSlice is the raw-slice im2col kernel: src holds a C×H×W image and
// dst receives the [C*KH*KW, OH*OW] column matrix. dst is fully defined on
// return — every position is written exactly once, live pixels by copy and
// padding by zero — so pooled buffers with stale contents are safe inputs.
//
// Row (ch,kh,kw) of the matrix is the image plane shifted by (kh,kw) and
// sampled at the stride, so the work is clipping, not testing pixels: the
// output rows and columns whose source falls inside the image form one
// range each, outside of which the row is zero. At stride 1 a live output
// row is one copy, and when the output is as wide as the input (the
// "same" convolutions that make up most of a CNN) all live rows of a
// matrix row are a single run of src.
func Im2ColSlice(dst, src []float32, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	plane := oh * ow
	dst = dst[:c*g.KH*g.KW*plane]
	onePitch := g.StrideH == 1 && g.StrideW == 1 && ow == w
	for ch := 0; ch < c; ch++ {
		img := src[ch*h*w : (ch+1)*h*w]
		for kh := 0; kh < g.KH; kh++ {
			oy0, oy1 := clipRange(oh, h, g.StrideH, kh-g.PadH)
			for kw := 0; kw < g.KW; kw++ {
				ox0, ox1 := clipRange(ow, w, g.StrideW, kw-g.PadW)
				out := dst[((ch*g.KH+kh)*g.KW+kw)*plane:][:plane]
				if oy0 == oy1 || ox0 == ox1 {
					clear(out)
					continue
				}
				clear(out[:oy0*ow])
				clear(out[oy1*ow:])
				if onePitch {
					// The copy wraps neighbouring pixels into the padding
					// columns; the loop below zeroes them.
					lo, hi := oy0*ow+ox0, (oy1-1)*ow+ox1
					copy(out[lo:hi], img[lo+(kh-g.PadH)*w+kw-g.PadW:])
				}
				for oy := oy0; oy < oy1; oy++ {
					drow := out[oy*ow:][:ow]
					for ox := 0; ox < ox0; ox++ {
						drow[ox] = 0
					}
					for ox := ox1; ox < ow; ox++ {
						drow[ox] = 0
					}
					if onePitch {
						continue
					}
					srow := img[(oy*g.StrideH+kh-g.PadH)*w:][:w]
					if g.StrideW == 1 {
						copy(drow[ox0:ox1], srow[ox0+kw-g.PadW:])
						continue
					}
					for ox := ox0; ox < ox1; ox++ {
						drow[ox] = srow[ox*g.StrideW+kw-g.PadW]
					}
				}
			}
		}
	}
}

// clipRange returns the range [lo,hi) of outputs o in [0,n) whose source
// index o*stride+off falls in [0,size); lo == hi when there are none.
func clipRange(n, size, stride, off int) (lo, hi int) {
	if off < 0 {
		lo = (stride - 1 - off) / stride
	}
	if last := size - 1 - off; last >= 0 {
		hi = min(last/stride+1, n)
	}
	return min(lo, hi), hi
}

// Col2Im folds a column matrix (as produced by Im2Col) back into an image
// of shape [C,H,W], accumulating overlapping contributions. It is the
// adjoint of Im2Col and is used for convolution input gradients.
func Col2Im(cols *Tensor, c, h, w int, g ConvGeom) *Tensor {
	x := New(c, h, w)
	Col2ImSlice(x.Data, cols.Data, c, h, w, g)
	return x
}

// Col2ImInto is Col2Im writing into a caller-owned image tensor of shape
// [C,H,W]. Any prior contents are overwritten.
func Col2ImInto(x, cols *Tensor, g ConvGeom) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if cols.Len() != g.ColsLen(c, h, w) {
		panic("tensor: Col2ImInto column size mismatch")
	}
	Col2ImSlice(x.Data, cols.Data, c, h, w, g)
}

// Col2ImSlice is the raw-slice col2im kernel: cols holds a
// [C*KH*KW, OH*OW] column matrix and dst receives the folded C×H×W image.
// dst is zeroed first, so pooled buffers are safe destinations.
func Col2ImSlice(dst, cols []float32, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	dst = dst[:c*h*w]
	for i := range dst {
		dst[i] = 0
	}
	for ch := 0; ch < c; ch++ {
		img := dst[ch*h*w : (ch+1)*h*w]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((ch*g.KH+kh)*g.KW + kw) * oh * ow
				src := cols[row : row+oh*ow]
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= h {
						continue
					}
					drow := img[iy*w:]
					srow := src[oy*ow:]
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix >= 0 && ix < w {
							drow[ix] += srow[ox]
						}
					}
				}
			}
		}
	}
}
