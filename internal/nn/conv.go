package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"adcnn/internal/parallel"
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Conv2D is a standard 2-D convolution layer over NCHW input.
// Weights have shape [OutC, InC, KH, KW]; bias has shape [OutC].
type Conv2D struct {
	label        string
	InC, OutC    int
	Geom         tensor.ConvGeom
	Weight, Bias *Param
	UseBias      bool

	// training caches
	inShape []int
	cols    []*tensor.Tensor // per-sample im2col matrices

	// int8 inference snapshot (conv_int8.go); nil means f32 execution
	int8w *quant.PerChannel
}

// NewConv2D creates a convolution layer with He-initialised weights.
func NewConv2D(label string, inC, outC, kh, kw, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		label:   label,
		InC:     inC,
		OutC:    outC,
		Geom:    tensor.ConvGeom{KH: kh, KW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
		Weight:  NewParam(label+".weight", outC, inC, kh, kw),
		Bias:    NewParam(label+".bias", outC),
		UseBias: true,
	}
	fanIn := inC * kh * kw
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	c.Weight.Value.RandN(rng, std)
	return c
}

// NoBias disables the additive bias (common when a BatchNorm follows).
func (c *Conv2D) NoBias() *Conv2D {
	c.UseBias = false
	return c
}

// OutShape returns the output NCHW shape for an input NCHW shape.
func (c *Conv2D) OutShape(in []int) []int {
	oh, ow := c.Geom.OutSize(in[2], in[3])
	return []int{in[0], c.OutC, oh, ow}
}

// oneByOne reports whether the layer is a pure 1×1 stride-1 convolution,
// for which the input plane already is the column matrix (YOLO's
// bottleneck layers hit this path) and im2col is skipped entirely.
func (c *Conv2D) oneByOne() bool {
	return c.Geom.KH == 1 && c.Geom.KW == 1 &&
		c.Geom.StrideH == 1 && c.Geom.StrideW == 1 &&
		c.Geom.PadH == 0 && c.Geom.PadW == 0
}

// Forward computes y[n] = W·im2col(x[n]) + b for each sample n.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forward(x, train, convPost{})
}

// convPost is what an inference conv fused with the layers after it
// applies to its output in the GEMM epilogue: a BatchNorm over its
// channels (nil: none), a residual skip shaped like its output (nil:
// none), and a ReLU — in that order, each giving bit for bit what the
// layer's own pass over the output would store.
type convPost struct {
	bn   *BatchNorm2D
	skip *tensor.Tensor
	relu bool
}

// forward is Forward with post applied, allocating only the output.
func (c *Conv2D) forward(x *tensor.Tensor, train bool, post convPost) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.Geom.OutSize(h, w)
	y := tensor.New(n, c.OutC, oh, ow)
	c.forwardInto(y, x, train, post)
	return y
}

// ForwardInto is Forward writing into a caller-owned output of shape
// [N, OutC, OH, OW]. In inference mode (train=false) the im2col scratch
// comes from the tensor buffer pool, so the call is allocation-free — the
// hot path for FDSP tile serving.
func (c *Conv2D) ForwardInto(y, x *tensor.Tensor, train bool) {
	c.forwardInto(y, x, train, convPost{})
}

func (c *Conv2D) forwardInto(y, x *tensor.Tensor, train bool, post convPost) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", c.label, x.Shape))
	}
	if x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %v", c.label, c.InC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.Geom.OutSize(h, w)
	if y.Rank() != 4 || y.Shape[0] != n || y.Shape[1] != c.OutC || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("nn: %s output shape %v, want [%d %d %d %d]", c.label, y.Shape, n, c.OutC, oh, ow))
	}
	if post.skip != nil && !post.skip.SameShape(y) {
		panic(fmt.Sprintf("nn: %s output %v, residual skip %v", c.label, y.Shape, post.skip.Shape))
	}
	if train {
		c.inShape = []int{n, c.InC, h, w}
		c.cols = make([]*tensor.Tensor, n)
	}
	// Samples are independent, so the im2col + matmul + bias work
	// parallelises cleanly across the batch. Single-sample (and
	// single-proc) calls take the direct loop: no closure, no goroutines,
	// no allocations.
	if n == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			c.forwardOne(y.Data, x.Data, i, h, w, oh, ow, train, post)
		}
		return
	}
	parallel.For(n, func(i int) {
		c.forwardOne(y.Data, x.Data, i, h, w, oh, ow, train, post)
	})
}

// forwardOne computes sample i in the mode the layer runs in, with
// post's ReLU and the same sample of its skip; the BatchNorm is folded
// where the sample takes its scratch.
func (c *Conv2D) forwardOne(yd, xd []float32, i, h, w, oh, ow int, train bool, post convPost) {
	ep := tensor.Epilogue{Bias: c.bias(), ReLU: post.relu}
	if post.skip != nil {
		outSample := c.OutC * oh * ow
		ep.Skip = post.skip.Data[i*outSample : (i+1)*outSample]
	}
	if !train && c.int8w != nil {
		c.forwardSampleInt8(yd, xd, i, h, w, oh, ow, ep, post.bn)
		return
	}
	c.forwardSample(yd, xd, i, h, w, oh, ow, train, ep, post.bn)
}

// bias is the layer's additive bias, nil when it has none.
func (c *Conv2D) bias() []float32 {
	if c.UseBias {
		return c.Bias.Value.Data
	}
	return nil
}

// foldLen is how many floats of scratch bn's fold takes: 2·OutC, or 0
// without a BatchNorm.
func (c *Conv2D) foldLen(bn *BatchNorm2D) int {
	if bn == nil {
		return 0
	}
	return 2 * c.OutC
}

// forwardSample computes one sample's output plane stack. The bias seeds
// the GEMM's accumulators and ep's post-ops — with bn, when not nil,
// folded into its scale and shift — run before its store, so the output
// is written once: no clearing pass before the product and no pass after
// it.
func (c *Conv2D) forwardSample(yd, xd []float32, i, h, w, oh, ow int, train bool, ep tensor.Epilogue, bn *BatchNorm2D) {
	kdim := c.InC * c.Geom.KH * c.Geom.KW
	plane := oh * ow
	sample := c.InC * h * w
	outSample := c.OutC * plane
	xs := xd[i*sample : (i+1)*sample]
	ys := yd[i*outSample : (i+1)*outSample]
	wd := c.Weight.Value.Data
	switch {
	case c.oneByOne():
		if train {
			c.cols[i] = tensor.FromSlice(xs, c.InC, h*w)
		}
		if bn != nil {
			ab := tensor.GetBuf(c.foldLen(bn))
			defer tensor.PutBuf(ab)
			bn.foldInto(&ep, ab)
		}
		tensor.GemmEpilogueInto(ys, wd, xs, c.OutC, kdim, plane, ep)
	case train:
		// Training keeps the column matrix for Backward; its storage is
		// pooled and recycled there.
		cols := tensor.GetTensor(kdim, plane)
		tensor.Im2ColSlice(cols.Data, xs, c.InC, h, w, c.Geom)
		c.cols[i] = cols
		tensor.GemmEpilogueInto(ys, wd, cols.Data, c.OutC, kdim, plane, ep)
	default:
		// The fold rides at the end of the column scratch: a pool bucket
		// of its own would be one more to refill after every GC.
		buf := tensor.GetBuf(kdim*plane + c.foldLen(bn))
		if bn != nil {
			bn.foldInto(&ep, buf[kdim*plane:])
		}
		cols := buf[:kdim*plane]
		tensor.Im2ColSlice(cols, xs, c.InC, h, w, c.Geom)
		tensor.GemmEpilogueInto(ys, wd, cols, c.OutC, kdim, plane, ep)
		tensor.PutBuf(buf)
	}
}

// Backward accumulates dW, db and returns dx.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D.Backward before Forward(train=true)")
	}
	n, h, w := c.inShape[0], c.inShape[2], c.inShape[3]
	oh, ow := c.Geom.OutSize(h, w)
	plane := oh * ow
	outSample := c.OutC * plane
	w2 := c.Weight.Value.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW)
	dw := c.Weight.Grad.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW)
	dx := tensor.New(c.inShape...)
	inSample := c.InC * h * w
	// Per-sample weight-gradient shards avoid racing on the shared dW;
	// they are reduced sequentially below.
	dwShards := make([]*tensor.Tensor, n)
	dbShards := make([][]float32, n)
	pooledCols := !c.oneByOne() // 1×1 cols are views into x, not pool-owned
	parallel.For(n, func(i int) {
		gi := tensor.FromSlice(grad.Data[i*outSample:(i+1)*outSample], c.OutC, plane)
		// dW_i = g · colsᵀ
		dwShards[i] = tensor.MatMulTransB(gi, c.cols[i])
		// dcols = Wᵀ · g, then fold back into image space.
		dcols := tensor.GetTensor(c.InC*c.Geom.KH*c.Geom.KW, plane)
		tensor.MatMulTransAInto(dcols, w2, gi)
		tensor.Col2ImSlice(dx.Data[i*inSample:(i+1)*inSample], dcols.Data, c.InC, h, w, c.Geom)
		tensor.PutTensor(dcols)
		if pooledCols {
			tensor.PutTensor(c.cols[i])
		}
		if c.UseBias {
			db := make([]float32, c.OutC)
			for oc := 0; oc < c.OutC; oc++ {
				var s float32
				row := gi.Data[oc*plane : (oc+1)*plane]
				for _, v := range row {
					s += v
				}
				db[oc] = s
			}
			dbShards[i] = db
		}
	})
	for i := 0; i < n; i++ {
		dw.Add(dwShards[i])
		if c.UseBias {
			for oc, s := range dbShards[i] {
				c.Bias.Grad.Data[oc] += s
			}
		}
	}
	c.cols = nil
	return dx
}

// Params returns weight (and bias when enabled).
func (c *Conv2D) Params() []*Param {
	if c.UseBias {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// Name returns the layer label.
func (c *Conv2D) Name() string { return c.label }

// FLOPs returns the multiply-accumulate count (×2 for mul+add) for an
// input of spatial size h×w. Used by the analytic performance model.
func (c *Conv2D) FLOPs(h, w int) int64 {
	oh, ow := c.Geom.OutSize(h, w)
	macs := int64(oh) * int64(ow) * int64(c.OutC) * int64(c.InC) * int64(c.Geom.KH) * int64(c.Geom.KW)
	return 2 * macs
}
