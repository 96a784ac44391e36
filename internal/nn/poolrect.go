package nn

import (
	"fmt"
	"math"

	"adcnn/internal/tensor"
)

// MaxPoolRect is max pooling with independent vertical/horizontal window
// sizes and strides. CharCNN's 1-D pipeline uses it with KW=SW=1 so text
// laid out along the H axis pools only along the sequence dimension.
type MaxPoolRect struct {
	label          string
	KH, KW, SH, SW int

	inShape []int
	argmax  []int
}

// NewMaxPoolRect creates a rectangular max-pooling layer.
func NewMaxPoolRect(label string, kh, kw, sh, sw int) *MaxPoolRect {
	if kh < 1 || kw < 1 || sh < 1 || sw < 1 {
		panic("nn: MaxPoolRect window/stride must be >= 1")
	}
	return &MaxPoolRect{label: label, KH: kh, KW: kw, SH: sh, SW: sw}
}

// Forward computes the windowed max.
func (p *MaxPoolRect) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return p.forward(x, train, false)
}

// infer is the inference Forward, its output taken with newOut(pooled, …).
func (p *MaxPoolRect) infer(x *tensor.Tensor, pooled bool) *tensor.Tensor {
	return p.forward(x, false, pooled)
}

// forward is Forward with its output taken by newOut(pooled, …).
func (p *MaxPoolRect) forward(x *tensor.Tensor, train, pooled bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW, got %v", p.label, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.KH)/p.SH + 1
	ow := (w-p.KW)/p.SW + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: %s window too large for %v", p.label, x.Shape))
	}
	y := newOut(pooled, n, c, oh, ow)
	if train {
		p.inShape = []int{n, c, h, w}
		p.argmax = make([]int, n*c*oh*ow)
	}
	for i := 0; i < n*c; i++ {
		src := x.Data[i*h*w:]
		dstBase := i * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bi := -1
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH + ky
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.SW + kx
						if v := src[iy*w+ix]; v > best {
							best, bi = v, iy*w+ix
						}
					}
				}
				y.Data[dstBase+oy*ow+ox] = best
				if train {
					p.argmax[dstBase+oy*ow+ox] = i*h*w + bi
				}
			}
		}
	}
	return y
}

// Backward scatters gradients to the max positions.
func (p *MaxPoolRect) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPoolRect.Backward before Forward(train=true)")
	}
	dx := tensor.New(p.inShape...)
	for i, v := range grad.Data {
		dx.Data[p.argmax[i]] += v
	}
	p.argmax = nil
	return dx
}

// Params returns nil.
func (p *MaxPoolRect) Params() []*Param { return nil }

// Name returns the layer label.
func (p *MaxPoolRect) Name() string { return p.label }
