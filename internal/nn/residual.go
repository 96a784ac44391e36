package nn

import (
	"fmt"

	"adcnn/internal/tensor"
)

// Residual implements the ResNet shortcut block (paper Figure 2(b,c)):
// y = ReLU(body(x) + shortcut(x)). The shortcut is the identity when the
// body preserves shape, or a projection (1×1 conv + BN) when it does not.
type Residual struct {
	label    string
	Body     *Sequential
	Shortcut *Sequential // nil means identity
	relu     *ReLU
}

// NewResidual creates a residual block; pass shortcut=nil for identity.
func NewResidual(label string, body *Sequential, shortcut *Sequential) *Residual {
	return &Residual{label: label, Body: body, Shortcut: shortcut, relu: NewReLU(label + ".relu")}
}

// Forward computes ReLU(body(x) + shortcut(x)).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		if y := r.forwardFused(x); y != nil {
			return y
		}
	}
	main := r.Body.Forward(x, train)
	var skip *tensor.Tensor
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, train)
	} else {
		skip = x
	}
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("nn: %s shape mismatch body %v vs shortcut %v", r.label, main.Shape, skip.Shape))
	}
	if train || sameStorage(main, x) {
		return r.relu.Forward(main.Clone().Add(skip), train)
	}
	// Inference: the body made main and nothing else holds it, so the sum
	// and the rectifier both happen there.
	r.relu.ForwardInPlace(main.Add(skip))
	return main
}

// forwardFused is the inference forward of a body that ends with
// Conv2D → BatchNorm2D: the shortcut runs first and that conv takes it
// as its residual skip, so the BatchNorm, the sum and the ReLU all
// happen in its GEMM epilogue. It returns nil for any other body.
func (r *Residual) forwardFused(x *tensor.Tensor) *tensor.Tensor {
	n := len(r.Body.Layers)
	conv, post, span := convBN(r.Body.Layers[max(n-2, 0):])
	if span != 2 {
		return nil
	}
	post.skip, post.relu = x, true
	if r.Shortcut != nil {
		post.skip = r.Shortcut.Forward(x, false)
	}
	return conv.forward(forwardChain(r.Body.Layers[:n-2], x, false), false, post)
}

// Backward propagates through the ReLU, the body, and the shortcut,
// summing the two input gradients.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := r.relu.Backward(grad)
	dxBody := r.Body.Backward(g.Clone())
	if r.Shortcut != nil {
		dxSkip := r.Shortcut.Backward(g)
		return dxBody.Add(dxSkip)
	}
	return dxBody.Add(g)
}

// Params returns body and shortcut parameters.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Name returns the block label.
func (r *Residual) Name() string { return r.label }
