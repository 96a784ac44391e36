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
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", p.label, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: %s window %d too large for input %v", p.label, p.K, x.Shape))
	}
	y := tensor.New(n, c, oh, ow)
	if !train {
		for i := 0; i < n*c; i++ {
			p.maxInto(y.Data[i*oh*ow:][:oh*ow], x.Data[i*h*w:][:h*w], w, ow)
		}
		return y
	}
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

// AvgPool2D applies average pooling with a square window.
type AvgPool2D struct {
	label  string
	K      int
	Stride int

	inShape []int
}

// NewAvgPool2D creates an average-pooling layer (window k, stride s).
func NewAvgPool2D(label string, k, s int) *AvgPool2D {
	return &AvgPool2D{label: label, K: k, Stride: s}
}

// Forward computes the mean over each window.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	y := tensor.New(n, c, oh, ow)
	if train {
		p.inShape = []int{n, c, h, w}
	}
	inv := 1 / float32(p.K*p.K)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(i*c+ch)*h*w:]
			dstBase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							s += src[iy*w+ox*p.Stride+kx]
						}
					}
					y.Data[dstBase+oy*ow+ox] = s * inv
				}
			}
		}
	}
	return y
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: AvgPool2D.Backward before Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(p.K*p.K)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			dst := dx.Data[(i*c+ch)*h*w:]
			srcBase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := grad.Data[srcBase+oy*ow+ox] * inv
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							dst[iy*w+ox*p.Stride+kx] += g
						}
					}
				}
			}
		}
	}
	p.inShape = nil
	return dx
}

// Params returns nil.
func (p *AvgPool2D) Params() []*Param { return nil }

// Name returns the layer label.
func (p *AvgPool2D) Name() string { return p.label }

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
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := tensor.New(n, c)
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
	if train {
		p.inShape = []int{n, c, h, w}
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
