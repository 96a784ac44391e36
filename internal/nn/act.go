package nn

import (
	"math"
	"math/rand"

	"adcnn/internal/tensor"
)

// ReLU is the standard rectified linear unit.
type ReLU struct {
	label string
	mask  []bool
}

// NewReLU creates a ReLU activation layer.
func NewReLU(label string) *ReLU { return &ReLU{label: label} }

// Forward computes max(0, x).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	if !train {
		reluInto(y.Data, x.Data)
		return y
	}
	r.mask = make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			r.mask[i] = true
		}
	}
	return y
}

func (r *ReLU) forwardInPlace(x *tensor.Tensor) { reluInto(x.Data, x.Data) }

// reluInto writes v where v > 0 and +0 elsewhere (negatives, -0, NaN);
// dst may be src. The sign of an activation is a coin toss, so the test
// is done on the bit pattern, which compiles to a conditional move and
// not to a branch that mispredicts every other element: a float32 is > 0
// exactly when its bits lie in [1, +Inf's].
func reluInto(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		u := math.Float32bits(v)
		var keep uint32
		if u-1 < 0x7F800000 {
			keep = u
		}
		dst[i] = math.Float32frombits(keep)
	}
}

// Backward zeroes the gradient where the forward input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	dx := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = v
		}
	}
	r.mask = nil
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Name returns the layer label.
func (r *ReLU) Name() string { return r.label }

// ClippedReLU is the paper's ReLU[a,b] (Section 4.1):
//
//	y = b-a  if x > b
//	y = x-a  if a <= x <= b
//	y = 0    if x < a
//
// The lower bound a prunes small activations to exact zeros (raising
// sparsity for the RLE stage) and the upper bound b caps the dynamic
// range so a fixed-point quantizer covers it with few bits.
type ClippedReLU struct {
	label string
	Lo    float32 // a
	Hi    float32 // b
	mask  []bool  // true where gradient passes (a <= x <= b)
}

// NewClippedReLU creates a clipped ReLU with bounds [lo, hi].
func NewClippedReLU(label string, lo, hi float32) *ClippedReLU {
	if hi <= lo {
		panic("nn: ClippedReLU requires hi > lo")
	}
	return &ClippedReLU{label: label, Lo: lo, Hi: hi}
}

// Range returns the output dynamic range b-a.
func (c *ClippedReLU) Range() float32 { return c.Hi - c.Lo }

// Forward applies the clipped rectifier.
func (c *ClippedReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	if train {
		c.mask = make([]bool, len(x.Data))
	}
	c.clipInto(y.Data, x.Data, train)
	return y
}

func (c *ClippedReLU) forwardInPlace(x *tensor.Tensor) { c.clipInto(x.Data, x.Data, false) }

// clipInto writes the rectifier of every element; dst may be src.
func (c *ClippedReLU) clipInto(dst, src []float32, train bool) {
	dst = dst[:len(src)]
	for i, v := range src {
		var y float32
		switch {
		case v > c.Hi:
			y = c.Hi - c.Lo
		case v >= c.Lo:
			y = v - c.Lo
			if train {
				c.mask[i] = true
			}
		}
		dst[i] = y
	}
}

// Backward passes gradient only through the linear region.
func (c *ClippedReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.mask == nil {
		panic("nn: ClippedReLU.Backward before Forward(train=true)")
	}
	dx := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		if c.mask[i] {
			dx.Data[i] = v
		}
	}
	c.mask = nil
	return dx
}

// Params returns nil; the bounds are hyperparameters, not learned.
func (c *ClippedReLU) Params() []*Param { return nil }

// Name returns the layer label.
func (c *ClippedReLU) Name() string { return c.label }

// Dropout randomly zeroes activations during training (inverted dropout,
// so inference is the identity).
type Dropout struct {
	label string
	P     float32
	rng   *rand.Rand
	mask  []float32
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(label string, p float32, rng *rand.Rand) *Dropout {
	return &Dropout{label: label, P: p, rng: rng}
}

// Forward applies the dropout mask in training mode; identity otherwise.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		return x.Clone()
	}
	y := tensor.New(x.Shape...)
	d.mask = make([]float32, len(x.Data))
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float32() >= d.P {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		// Dropout was a no-op (P==0); pass gradient through.
		return grad.Clone()
	}
	dx := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		dx.Data[i] = v * d.mask[i]
	}
	d.mask = nil
	return dx
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Name returns the layer label.
func (d *Dropout) Name() string { return d.label }
