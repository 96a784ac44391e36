// Package tensor provides a minimal dense float32 tensor used by the ADCNN
// neural-network substrate. Layout is row-major; convolutional data uses
// NCHW order (batch, channel, height, width).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
// A nil or empty shape produces a scalar-like tensor of one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Scalars only: formatting shape would make every caller
			// heap-allocate its argument array.
			panic(fmt.Sprintf("tensor: negative dimension %d in a rank-%d shape", d, len(shape)))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match the rank-%d shape's volume %d", len(data), len(shape), n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume.
// The data is shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v volume mismatch", t.Shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// RandN fills t with samples from N(0, stddev²) using rng.
func (t *Tensor) RandN(rng *rand.Rand, stddev float32) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * stddev
	}
}

// RandU fills t with uniform samples in [lo, hi) using rng.
func (t *Tensor) RandU(rng *rand.Rand, lo, hi float32) {
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*rng.Float32()
	}
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; it panics on an empty tensor.
func (t *Tensor) Min() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the largest element.
func (t *Tensor) ArgMax() int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Sparsity returns the fraction of elements equal to zero.
func (t *Tensor) Sparsity() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	n := 0
	for _, v := range t.Data {
		if v == 0 {
			n++
		}
	}
	return float64(n) / float64(len(t.Data))
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}

// Equal reports whether t and o have the same shape and elementwise values
// within tolerance eps.
func (t *Tensor) Equal(o *Tensor, eps float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		d := v - o.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
