// Package nn implements the neural-network layers, losses and optimizers
// that ADCNN's CNN models are built from. Every layer supports both
// inference and training (backpropagation), because ADCNN's progressive
// retraining (paper Algorithm 1) re-trains models after each architecture
// modification.
//
// Data layout: convolutional activations are NCHW ([batch, channel,
// height, width]); fully-connected activations are [batch, features].
package nn

import (
	"fmt"

	"adcnn/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable network component. Forward must be called
// before Backward; Backward consumes the gradient w.r.t. the layer output
// and returns the gradient w.r.t. the layer input, accumulating parameter
// gradients as a side effect.
type Layer interface {
	// Forward computes the layer output. train selects training-mode
	// behaviour (batch statistics, dropout masks, caches for Backward).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates gradients. It must only be called after a
	// Forward with train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
	// Name identifies the layer for debugging and serialization.
	Name() string
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	label  string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{label: label, Layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return forwardChain(s.Layers, x, train)
}

// inPlacer is an elementwise layer whose inference forward can overwrite
// its input: ForwardInPlace(x) leaves in x what Forward(x, false) returns.
type inPlacer interface {
	ForwardInPlace(x *tensor.Tensor)
}

// forwardChain runs layers in order. At inference it fuses: a Conv2D
// followed by a BatchNorm2D over its channels, and by a ReLU if one comes
// next, runs as one conv call whose GEMM applies the BatchNorm and the
// ReLU before its store (bit for bit what their passes would leave). An
// inPlacer that follows a layer of the same chain works in that layer's
// output instead of allocating its own: the chain made that tensor and
// nothing else holds it. The chain's input is never written — until some
// layer has returned storage of its own (not a view of what it was
// given, as Flatten and an empty Sequential do), inPlacers allocate like
// any layer.
func forwardChain(layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	owned := false
	for i := 0; i < len(layers); i++ {
		if !train {
			if conv, post, span := convBN(layers[i:]); span > 0 {
				x = conv.forward(x, false, post)
				owned = true
				i += span - 1
				continue
			}
			if ip, ok := layers[i].(inPlacer); ok && owned {
				ip.ForwardInPlace(x)
				continue
			}
		}
		y := layers[i].Forward(x, train)
		owned = owned || !sameStorage(y, x)
		x = y
	}
	return x
}

// convBN matches the fusable pattern at the head of layers — a Conv2D,
// a BatchNorm2D over its output channels, then a ReLU or not — and
// returns the conv, the post-ops of the layers after it, and how many
// layers the match spans (0: none).
func convBN(layers []Layer) (*Conv2D, convPost, int) {
	if len(layers) < 2 {
		return nil, convPost{}, 0
	}
	conv, ok := layers[0].(*Conv2D)
	bn, isBN := layers[1].(*BatchNorm2D)
	if !ok || !isBN || bn.C != conv.OutC {
		return nil, convPost{}, 0
	}
	if len(layers) > 2 {
		if _, ok := layers[2].(*ReLU); ok {
			return conv, convPost{bn: bn, relu: true}, 3
		}
	}
	return conv, convPost{bn: bn}, 2
}

// sameStorage reports whether two tensors view the same backing array.
func sameStorage(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects the parameters of all contained layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name returns the chain label.
func (s *Sequential) Name() string { return s.label }

// ForwardUpTo runs layers [0, n) and returns the intermediate activation.
// It is used by partitioning frameworks that split a model at layer n.
func (s *Sequential) ForwardUpTo(x *tensor.Tensor, n int, train bool) *tensor.Tensor {
	if n < 0 || n > len(s.Layers) {
		panic(fmt.Sprintf("nn: ForwardUpTo(%d) out of range for %d layers", n, len(s.Layers)))
	}
	return forwardChain(s.Layers[:n], x, train)
}

// ForwardFrom runs layers [n, len) on x.
func (s *Sequential) ForwardFrom(x *tensor.Tensor, n int, train bool) *tensor.Tensor {
	if n < 0 || n > len(s.Layers) {
		panic(fmt.Sprintf("nn: ForwardFrom(%d) out of range for %d layers", n, len(s.Layers)))
	}
	return forwardChain(s.Layers[n:], x, train)
}

// ZeroGrad clears the gradients of every parameter in the chain.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}
