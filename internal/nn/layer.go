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

// inferer is a leaf layer with an inference form that takes its output
// with newOut: from the tensor pool when pooled — the caller then owns it
// and puts it back once consumed — and fresh otherwise.
type inferer interface {
	infer(x *tensor.Tensor, pooled bool) *tensor.Tensor
}

// newOut returns an output tensor of the given shape: from the pool,
// contents unspecified, when pooled; fresh and zeroed otherwise.
func newOut(pooled bool, shape ...int) *tensor.Tensor {
	if pooled {
		return tensor.GetTensor(shape...)
	}
	return tensor.New(shape...)
}

// forwardChain runs layers in order; at inference it is inferChain with
// a fresh answer.
func forwardChain(layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return inferChain(layers, x, false)
	}
	for _, l := range layers {
		x = l.Forward(x, true)
	}
	return x
}

// inferChain is the inference forward of a chain. It fuses: a Conv2D
// followed by a BatchNorm2D over its channels, and by a ReLU if one
// comes next, runs as one conv call whose GEMM applies the BatchNorm and
// the ReLU before its store (bit for bit what their passes would
// leave). A leaf layer's output is an intermediate taken from the tensor
// pool and put back as soon as the next step has consumed it, except the
// answer: the output of the step that only inPlacers follow, taken by
// newOut(pooled, …). An inPlacer that follows a layer of the same chain
// works in that layer's output: the chain made that tensor and nothing
// else holds it. Three tensors are never put back: the chain's input,
// which is never written either; what a step returns that shares its
// input's storage (a view, as Flatten returns of the input; SharesData); and the
// output of a layer without an inference form — a nested block
// (Sequential, Residual) or a foreign layer — which the chain did not
// take from the pool. A block's answer is fresh inside a chain as it is
// when the block is called alone, so a block costs the same in both
// places and a per-block profile sums to its chain.
func inferChain(layers []Layer, x *tensor.Tensor, pooled bool) *tensor.Tensor {
	// mine: x is storage some step of this chain made (an inPlacer may
	// write it); put: x came from the pool and goes back once consumed.
	mine, put := false, false
	for i := 0; i < len(layers); {
		if ip, ok := layers[i].(inPlacer); ok && mine {
			ip.ForwardInPlace(x)
			i++
			continue
		}
		conv, post, span := convBN(layers[i:])
		pool := pooled || !inPlaceTail(layers[i+max(span, 1):])
		var y *tensor.Tensor
		switch l := layers[i].(type) {
		case inferer:
			if span > 0 {
				y = conv.forward(x, false, pool, post)
				break
			}
			span = 1
			y = l.infer(x, pool)
		default:
			span = 1
			y, pool = l.Forward(x, false), false
		}
		if !y.SharesData(x) {
			if put {
				tensor.PutTensor(x)
			}
			mine, put = true, pool
		}
		x = y
		i += span
	}
	return x
}

// inPlaceTail reports whether every layer of layers is an inPlacer, so
// that whatever precedes them makes the chain's answer.
func inPlaceTail(layers []Layer) bool {
	for _, l := range layers {
		if _, ok := l.(inPlacer); !ok {
			return false
		}
	}
	return true
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
