package nn

import (
	"fmt"
	"math"
	"math/rand"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Flatten reshapes NCHW activations to [N, C*H*W]. It is a pure view
// change but records the input shape so gradients can be folded back.
type Flatten struct {
	label   string
	inShape []int
}

// NewFlatten creates a flatten layer.
func NewFlatten(label string) *Flatten { return &Flatten{label: label} }

// Forward flattens all non-batch dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = append([]int(nil), x.Shape...)
	}
	n := x.Shape[0]
	return x.Reshape(n, x.Len()/n)
}

// ForwardInPlace reshapes x itself to Forward(x, false)'s shape: a chain
// that made x owns its header as well as its data.
func (f *Flatten) ForwardInPlace(x *tensor.Tensor) {
	n := x.Shape[0]
	x.Shape = append(x.Shape[:0], n, x.Len()/n)
}

// Backward restores the original shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten.Backward before Forward(train=true)")
	}
	out := grad.Reshape(f.inShape...)
	f.inShape = nil
	return out
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

// Name returns the layer label.
func (f *Flatten) Name() string { return f.label }

// Linear is a fully connected layer: y = x·Wᵀ + b with W of shape
// [Out, In] and input [N, In].
type Linear struct {
	label        string
	In, Out      int
	Weight, Bias *Param

	x *tensor.Tensor // cached input

	// int8 inference snapshot (linear_int8.go); nil means f32 execution
	int8w *quant.PerChannel
}

// NewLinear creates a fully connected layer with He-initialised weights.
func NewLinear(label string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		label:  label,
		In:     in,
		Out:    out,
		Weight: NewParam(label+".weight", out, in),
		Bias:   NewParam(label+".bias", out),
	}
	std := float32(math.Sqrt(2.0 / float64(in)))
	l.Weight.Value.RandN(rng, std)
	return l
}

// Forward computes the affine transform.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape[0], l.Out)
	l.ForwardInto(y, x, train)
	return y
}

// infer is the inference Forward into an output taken with
// newOut(pooled, …).
func (l *Linear) infer(x *tensor.Tensor, pooled bool) *tensor.Tensor {
	y := newOut(pooled, x.Shape[0], l.Out)
	l.ForwardInto(y, x, false)
	return y
}

// ForwardInto is Forward writing into a caller-owned [N, Out] output. In
// inference mode (train=false) the call is allocation-free: the GEMM runs
// either in the small-batch dot kernel or against pooled repack scratch.
func (l *Linear) ForwardInto(y, x *tensor.Tensor, train bool) {
	if x.Rank() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s expects [N %d], got %v", l.label, l.In, x.Shape))
	}
	n := x.Shape[0]
	if y.Rank() != 2 || y.Shape[0] != n || y.Shape[1] != l.Out {
		panic(fmt.Sprintf("nn: %s output shape %v, want [%d %d]", l.label, y.Shape, n, l.Out))
	}
	if !train && l.int8w != nil && l.forwardInt8(y, x) {
		return
	}
	tensor.MatMulTransBInto(y, x, l.Weight.Value) // [N,In]·[Out,In]ᵀ = [N,Out]
	bias := l.Bias.Value.Data
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += bias[j]
		}
	}
	if train {
		l.x = x.Clone()
	}
}

// Backward accumulates dW = gᵀ·x, db = Σg and returns dx = g·W.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward(train=true)")
	}
	// dW[Out,In] += gradᵀ[Out,N] · x[N,In]; the temporary product lives in
	// pooled storage.
	dw := tensor.GetTensor(l.Out, l.In)
	tensor.MatMulTransAInto(dw, grad, l.x)
	l.Weight.Grad.Add(dw)
	tensor.PutTensor(dw)
	n := grad.Shape[0]
	for i := 0; i < n; i++ {
		row := grad.Data[i*l.Out : (i+1)*l.Out]
		for j, v := range row {
			l.Bias.Grad.Data[j] += v
		}
	}
	dx := tensor.MatMul(grad, l.Weight.Value) // [N,Out]·[Out,In]
	l.x = nil
	return dx
}

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Name returns the layer label.
func (l *Linear) Name() string { return l.label }

// FLOPs returns the multiply-accumulate count (×2) per sample.
func (l *Linear) FLOPs() int64 { return 2 * int64(l.In) * int64(l.Out) }
