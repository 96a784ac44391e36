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
// tiles and returns the in-flight handle. The slot is released when the
// handle's Wait finishes, so at most depth images overlap. Every
// successful Submit must be paired with exactly one Wait.
func (p *Pipeline) Submit(ctx context.Context, x *tensor.Tensor) (*Inflight, error) {
	if err := p.Reserve(ctx); err != nil {
		return nil, err
	}
	return p.SubmitReserved(ctx, x)
}

// Reserve blocks until an admission slot frees and takes it without
// dispatching anything yet, for a caller that must not pick its next
// image until it can actually start one (see Cluster.dispatch). Every
// successful Reserve must be followed by exactly one SubmitReserved.
func (p *Pipeline) Reserve(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.C.ctx.Done():
		return p.C.ctx.Err()
	}
	return nil
}

// SubmitReserved is Submit for a caller already holding a slot from
// Reserve: the slot travels with the returned handle, or is released
// here when the dispatch fails.
func (p *Pipeline) SubmitReserved(ctx context.Context, x *tensor.Tensor) (*Inflight, error) {
	release := func() { <-p.sem }
	h, err := p.C.InferAsync(ctx, x)
	if err != nil {
		release()
		return nil, err
	}
	h.release = release
	return h, nil
}
