package core

import (
	"context"

	"adcnn/internal/tensor"
)

// Pipeline is the live counterpart of the simulator's StreamDepth
// admission control (stream.go): it bounds the number of in-flight
// images so an open-loop stream overlaps tile transfer, Conv-node
// compute, and Central back-layers across consecutive images (paper
// Figure 9) without growing its queue — and its per-image latency —
// without limit.
type Pipeline struct {
	C   *Central
	sem chan struct{}
}

// NewPipeline wraps c with bounded-depth admission. depth ≤ 0 uses
// StreamDepth, the same window the simulator models.
func NewPipeline(c *Central, depth int) *Pipeline {
	if depth <= 0 {
		depth = StreamDepth
	}
	return &Pipeline{C: c, sem: make(chan struct{}, depth)}
}

// Submit blocks until an admission slot frees, then dispatches x's
// tiles and returns the in-flight handle; it returns ctx's error if ctx
// ends first, and the Central's once it shuts down. The slot is
// released when the handle's Wait finishes (or here, when the dispatch
// fails), so at most depth images overlap. Every successful Submit must
// be paired with exactly one Wait.
func (p *Pipeline) Submit(ctx context.Context, x *tensor.Tensor) (*Inflight, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.C.ctx.Done():
		return nil, p.C.ctx.Err()
	}
	release := func() { <-p.sem }
	h, err := p.C.InferAsync(ctx, x)
	if err != nil {
		release()
		return nil, err
	}
	h.release = release
	return h, nil
}
