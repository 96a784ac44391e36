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
		return r.forwardInfer(x)
	}
	main := r.Body.Forward(x, true)
	skip := x
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, true)
	}
	r.checkShapes(main, skip)
	return r.relu.Forward(main.Clone().Add(skip), true)
}

// forwardInfer is the inference forward. The body's and the shortcut's
// intermediates come from the pool and go back once consumed; only the
// answer is fresh. x — an identity shortcut's live skip — is never
// written or put back.
func (r *Residual) forwardInfer(x *tensor.Tensor) *tensor.Tensor {
	if y := r.inferFused(x); y != nil {
		return y
	}
	main := inferChain(r.Body.Layers, x, false)
	skip := r.shortcut(x)
	r.checkShapes(main, skip)
	if main.SharesData(x) {
		// The body made nothing of its own to sum into.
		main = main.Clone()
	}
	// The body made main and nothing else holds it, so the sum and the
	// rectifier both happen there.
	r.relu.ForwardInPlace(main.Add(skip))
	putUnless(skip, x)
	return main
}

// inferFused is the inference forward of a body that ends with
// Conv2D → BatchNorm2D: the shortcut runs first and that conv takes it
// as its residual skip, so the BatchNorm, the sum and the ReLU all
// happen in its GEMM epilogue. It returns nil for any other body.
func (r *Residual) inferFused(x *tensor.Tensor) *tensor.Tensor {
	n := len(r.Body.Layers)
	conv, post, span := convBN(r.Body.Layers[max(n-2, 0):])
	if span != 2 {
		return nil
	}
	post.skip, post.relu = r.shortcut(x), true
	h := inferChain(r.Body.Layers[:n-2], x, true)
	y := conv.forward(h, false, false, post)
	putUnless(h, x)
	putUnless(post.skip, x)
	return y
}

// shortcut is the inference shortcut of x: x itself for an identity
// shortcut, else the projection's output from the pool.
func (r *Residual) shortcut(x *tensor.Tensor) *tensor.Tensor {
	if r.Shortcut == nil {
		return x
	}
	return inferChain(r.Shortcut.Layers, x, true)
}

func (r *Residual) checkShapes(main, skip *tensor.Tensor) {
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("nn: %s shape mismatch body %v vs shortcut %v", r.label, main.Shape, skip.Shape))
	}
}

// putUnless puts t, an inference chain's pooled answer on input x, back
// to the pool unless it is x or a view of x.
func putUnless(t, x *tensor.Tensor) {
	if !t.SharesData(x) {
		tensor.PutTensor(t)
	}
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
