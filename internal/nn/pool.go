package nn

import (
	"fmt"
	"math"

	"adcnn/internal/tensor"
)

// MaxPool2D applies max pooling with a square window. The paper keeps
// pooling receptive fields entirely inside each FDSP tile, so this layer
// never needs cross-tile data.
type MaxPool2D struct {
	label  string
	K      int // window size
	Stride int

	inShape []int
	argmax  []int // flat input index chosen per output element
}

// NewMaxPool2D creates a max-pooling layer (window k, stride s).
func NewMaxPool2D(label string, k, s int) *MaxPool2D {
	return &MaxPool2D{label: label, K: k, Stride: s}
}

// OutShape returns the output NCHW shape for an input NCHW shape.
func (p *MaxPool2D) OutShape(in []int) []int {
	oh := (in[2]-p.K)/p.Stride + 1
	ow := (in[3]-p.K)/p.Stride + 1
	return []int{in[0], in[1], oh, ow}
}

// Forward computes the max over each window, caching argmax for Backward
// when training.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return p.infer(x, false)
	}
	n, c, h, w, oh, ow := p.dims(x)
	y := tensor.New(n, c, oh, ow)
	p.inShape = []int{n, c, h, w}
	p.argmax = make([]int, n*c*oh*ow)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(i*c+ch)*h*w:]
			dstBase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bi := -1
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride + kx
							v := src[iy*w+ix]
							if v > best {
								best, bi = v, iy*w+ix
							}
						}
					}
					y.Data[dstBase+oy*ow+ox] = best
					p.argmax[dstBase+oy*ow+ox] = (i*c+ch)*h*w + bi
				}
			}
		}
	}
	return y
}

// dims checks x and returns its NCHW dimensions and the output's
// height and width.
func (p *MaxPool2D) dims(x *tensor.Tensor) (n, c, h, w, oh, ow int) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", p.label, x.Shape))
	}
	n, c, h, w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh = (h-p.K)/p.Stride + 1
	ow = (w-p.K)/p.Stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: %s window %d too large for input %v", p.label, p.K, x.Shape))
	}
	return n, c, h, w, oh, ow
}

// infer pools every plane into an output taken with newOut(pooled, …):
// the 2×2/stride-2 window, the zoo's, in one vector pass over all of
// them, any other with maxInto per plane.
func (p *MaxPool2D) infer(x *tensor.Tensor, pooled bool) *tensor.Tensor {
	n, c, h, w, oh, ow := p.dims(x)
	y := newOut(pooled, n, c, oh, ow)
	if p.K == 2 && p.Stride == 2 {
		tensor.MaxPool2x2Into(y.Data, x.Data, n*c, h, w)
		return y
	}
	for i := 0; i < n*c; i++ {
		p.maxInto(y.Data[i*oh*ow:][:oh*ow], x.Data[i*h*w:][:h*w], w, ow)
	}
	return y
}

// maxInto pools one plane for inference: no argmax to remember, so each
// output row is the running maximum of K·K strided passes over K input
// rows — straight loops with nothing to mispredict, where the
// window-at-a-time scan above branches on every comparison. A window
// holding a NaN yields NaN (the builtin max); the training scan skips it.
func (p *MaxPool2D) maxInto(dst, src []float32, w, ow int) {
	for oy := 0; oy*ow < len(dst); oy++ {
		d := dst[oy*ow:][:ow]
		for ky := 0; ky < p.K; ky++ {
			for kx := 0; kx < p.K; kx++ {
				row := src[(oy*p.Stride+ky)*w+kx:]
				if ky == 0 && kx == 0 {
					for ox := range d {
						d[ox] = row[ox*p.Stride]
					}
					continue
				}
				for ox := range d {
					d[ox] = max(d[ox], row[ox*p.Stride])
				}
			}
		}
	}
}

// Backward scatters each output gradient to the input position that won
// the max.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward before Forward(train=true)")
	}
	dx := tensor.New(p.inShape...)
	for i, v := range grad.Data {
		dx.Data[p.argmax[i]] += v
	}
	p.argmax = nil
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// Name returns the layer label.
func (p *MaxPool2D) Name() string { return p.label }

// GlobalAvgPool2D averages each channel's full spatial plane, producing a
// [N, C] activation (used by ResNet-style heads).
type GlobalAvgPool2D struct {
	label   string
	inShape []int
}

// NewGlobalAvgPool2D creates a global average pooling layer.
func NewGlobalAvgPool2D(label string) *GlobalAvgPool2D {
	return &GlobalAvgPool2D{label: label}
}

// Forward averages over H×W per channel.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := p.infer(x, false)
	if train {
		p.inShape = append([]int(nil), x.Shape...)
	}
	return y
}

// infer averages into an output taken with newOut(pooled, …).
func (p *GlobalAvgPool2D) infer(x *tensor.Tensor, pooled bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := newOut(pooled, n, c)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			var s float32
			for _, v := range src {
				s += v
			}
			y.Data[i*c+ch] = s * inv
		}
	}
	return y
}

// Backward spreads the gradient uniformly across the plane.
func (p *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: GlobalAvgPool2D.Backward before Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[i*c+ch] * inv
			dst := dx.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for j := range dst {
				dst[j] = g
			}
		}
	}
	p.inShape = nil
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool2D) Params() []*Param { return nil }

// Name returns the layer label.
func (p *GlobalAvgPool2D) Name() string { return p.label }
