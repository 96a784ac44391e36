package nn

import (
	"fmt"
	"math"

	"adcnn/internal/tensor"
)

// BatchNorm2D normalises each channel over the batch and spatial
// dimensions. During inference it applies the folded affine transform
// y = a·x + b with a = γ/σ and b = β − µγ/σ, exactly as described in the
// paper's Section 2.1.
type BatchNorm2D struct {
	label string
	C     int
	Eps   float32
	// Momentum is the running-statistics update rate (PyTorch convention:
	// running = (1-momentum)*running + momentum*batch).
	Momentum float32
	// Frozen makes training-mode forwards use the running statistics as
	// fixed constants (standard for fine-tuning, and required by probes
	// that must not let gradients flow through batch statistics).
	Frozen bool

	Gamma, Beta             *Param
	RunningMean, RunningVar *tensor.Tensor

	// training caches
	xhat      *tensor.Tensor
	invStd    []float32
	batchSize int
	spatial   int
	frozenBwd bool
}

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(label string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		label:       label,
		C:           c,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       NewParam(label+".gamma", c),
		Beta:        NewParam(label+".beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.Value.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// Forward normalises x. In training mode it uses batch statistics and
// updates the running estimates; in inference mode it uses the running
// statistics only.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("nn: %s expects NCHW with C=%d, got %v", bn.label, bn.C, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	plane := h * w
	sample := bn.C * plane
	y := tensor.New(x.Shape...)

	if !train {
		bn.foldedInto(y.Data, x.Data, n, plane)
		return y
	}

	if bn.Frozen {
		// Training-mode forward with fixed statistics: cache what the
		// frozen backward needs, normalise with the running estimates.
		bn.xhat = tensor.New(x.Shape...)
		bn.invStd = make([]float32, bn.C)
		bn.batchSize, bn.spatial = n, plane
		bn.frozenBwd = true
		for ch := 0; ch < bn.C; ch++ {
			inv := float32(1.0 / math.Sqrt(float64(bn.RunningVar.Data[ch])+float64(bn.Eps)))
			bn.invStd[ch] = inv
			g, b := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
			mean := bn.RunningMean.Data[ch]
			for i := 0; i < n; i++ {
				src := x.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
				xh := bn.xhat.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
				dst := y.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
				for j, v := range src {
					h := (v - mean) * inv
					xh[j] = h
					dst[j] = g*h + b
				}
			}
		}
		return y
	}

	m := float32(n * plane)
	bn.xhat = tensor.New(x.Shape...)
	bn.invStd = make([]float32, bn.C)
	bn.batchSize, bn.spatial = n, plane
	bn.frozenBwd = false
	for ch := 0; ch < bn.C; ch++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			src := x.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			for _, v := range src {
				sum += float64(v)
				sq += float64(v) * float64(v)
			}
		}
		mean := float32(sum / float64(m))
		variance := float32(sq/float64(m)) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1.0 / math.Sqrt(float64(variance)+float64(bn.Eps)))
		bn.invStd[ch] = inv
		g, b := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
		for i := 0; i < n; i++ {
			src := x.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			xh := bn.xhat.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			dst := y.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			for j, v := range src {
				h := (v - mean) * inv
				xh[j] = h
				dst[j] = g*h + b
			}
		}
		bn.RunningMean.Data[ch] = (1-bn.Momentum)*bn.RunningMean.Data[ch] + bn.Momentum*mean
		bn.RunningVar.Data[ch] = (1-bn.Momentum)*bn.RunningVar.Data[ch] + bn.Momentum*variance
	}
	return y
}

// fold returns channel ch's inference transform y = a·x + b, the
// running statistics folded into a and b. It is computed per call and
// never cached, so it cannot go stale after training; foldedInto and a
// conv fused with this layer (convPost) both take it from here.
func (bn *BatchNorm2D) fold(ch int) (a, b float32) {
	inv := float32(1.0 / math.Sqrt(float64(bn.RunningVar.Data[ch])+float64(bn.Eps)))
	a = bn.Gamma.Value.Data[ch] * inv
	return a, bn.Beta.Value.Data[ch] - float32(bn.RunningMean.Data[ch]*a)
}

// foldInto sets ep's Scale and Shift to the layer's inference
// transform, written into the first 2·C floats of scratch.
func (bn *BatchNorm2D) foldInto(ep *tensor.Epilogue, scratch []float32) {
	ep.Scale, ep.Shift = scratch[:bn.C], scratch[bn.C:2*bn.C]
	for ch := range ep.Scale {
		ep.Scale[ch], ep.Shift[ch] = bn.fold(ch)
	}
}

// foldedInto applies the inference transform per channel, the multiply
// and the add each rounded on its own (as the GEMM epilogue does them).
func (bn *BatchNorm2D) foldedInto(dst, src []float32, n, plane int) {
	sample := bn.C * plane
	for ch := 0; ch < bn.C; ch++ {
		a, b := bn.fold(ch)
		for i := 0; i < n; i++ {
			s := src[i*sample+ch*plane : i*sample+(ch+1)*plane]
			d := dst[i*sample+ch*plane : i*sample+(ch+1)*plane]
			for j, v := range s {
				d[j] = float32(a*v) + b
			}
		}
	}
}

// Backward computes gradients through the batch-normalisation transform.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if bn.xhat == nil {
		panic("nn: BatchNorm2D.Backward before Forward(train=true)")
	}
	n, plane := bn.batchSize, bn.spatial
	sample := bn.C * plane
	m := float32(n * plane)
	dx := tensor.New(grad.Shape...)
	if bn.frozenBwd {
		// Statistics were constants, so dx = dy·γ·inv; γ/β gradients as usual.
		for ch := 0; ch < bn.C; ch++ {
			g := bn.Gamma.Value.Data[ch]
			inv := bn.invStd[ch]
			var sumDy, sumDyXhat float64
			for i := 0; i < n; i++ {
				dy := grad.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
				xh := bn.xhat.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
				dst := dx.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
				for j, v := range dy {
					sumDy += float64(v)
					sumDyXhat += float64(v) * float64(xh[j])
					dst[j] = g * inv * v
				}
			}
			bn.Beta.Grad.Data[ch] += float32(sumDy)
			bn.Gamma.Grad.Data[ch] += float32(sumDyXhat)
		}
		bn.xhat = nil
		return dx
	}
	for ch := 0; ch < bn.C; ch++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			dy := grad.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			xh := bn.xhat.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			for j, v := range dy {
				sumDy += float64(v)
				sumDyXhat += float64(v) * float64(xh[j])
			}
		}
		bn.Beta.Grad.Data[ch] += float32(sumDy)
		bn.Gamma.Grad.Data[ch] += float32(sumDyXhat)
		g := bn.Gamma.Value.Data[ch]
		inv := bn.invStd[ch]
		meanDy := float32(sumDy) / m
		meanDyXhat := float32(sumDyXhat) / m
		for i := 0; i < n; i++ {
			dy := grad.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			xh := bn.xhat.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			dst := dx.Data[i*sample+ch*plane : i*sample+(ch+1)*plane]
			for j, v := range dy {
				dst[j] = g * inv * (v - meanDy - xh[j]*meanDyXhat)
			}
		}
	}
	bn.xhat = nil
	return dx
}

// Params returns γ and β.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Name returns the layer label.
func (bn *BatchNorm2D) Name() string { return bn.label }
