package nn

import (
	"fmt"

	"adcnn/internal/tensor"
)

// Upsample2D performs nearest-neighbour upsampling by an integer factor,
// used by the FCN head to restore input resolution after the backbone's
// pooling. Backward sums the gradient over each replicated block.
type Upsample2D struct {
	label   string
	Factor  int
	inShape []int
}

// NewUpsample2D creates an upsampling layer.
func NewUpsample2D(label string, factor int) *Upsample2D {
	if factor < 1 {
		panic("nn: upsample factor must be >= 1")
	}
	return &Upsample2D{label: label, Factor: factor}
}

// Forward replicates each pixel factor×factor times.
func (u *Upsample2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := u.infer(x, false)
	if train {
		u.inShape = append([]int(nil), x.Shape...)
	}
	return y
}

// infer upsamples into an output taken with newOut(pooled, …).
func (u *Upsample2D) infer(x *tensor.Tensor, pooled bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW, got %v", u.label, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f := u.Factor
	y := newOut(pooled, n, c, h*f, w*f)
	for i := 0; i < n*c; i++ {
		src := x.Data[i*h*w : (i+1)*h*w]
		dst := y.Data[i*h*f*w*f:]
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				v := src[yy*w+xx]
				for fy := 0; fy < f; fy++ {
					row := dst[(yy*f+fy)*w*f+xx*f:]
					for fx := 0; fx < f; fx++ {
						row[fx] = v
					}
				}
			}
		}
	}
	return y
}

// Backward sums gradients over each factor×factor block.
func (u *Upsample2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if u.inShape == nil {
		panic("nn: Upsample2D.Backward before Forward(train=true)")
	}
	n, c, h, w := u.inShape[0], u.inShape[1], u.inShape[2], u.inShape[3]
	f := u.Factor
	dx := tensor.New(u.inShape...)
	for i := 0; i < n*c; i++ {
		src := grad.Data[i*h*f*w*f:]
		dst := dx.Data[i*h*w : (i+1)*h*w]
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				var s float32
				for fy := 0; fy < f; fy++ {
					row := src[(yy*f+fy)*w*f+xx*f:]
					for fx := 0; fx < f; fx++ {
						s += row[fx]
					}
				}
				dst[yy*w+xx] = s
			}
		}
	}
	u.inShape = nil
	return dx
}

// Params returns nil.
func (u *Upsample2D) Params() []*Param { return nil }

// Name returns the layer label.
func (u *Upsample2D) Name() string { return u.label }
