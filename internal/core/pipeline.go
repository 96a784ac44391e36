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
	C     *Central
	depth int
	sem   chan struct{}
}

// NewPipeline wraps c with bounded-depth admission. depth ≤ 0 uses
// StreamDepth, the same window the simulator models.
func NewPipeline(c *Central, depth int) *Pipeline {
	if depth <= 0 {
		depth = StreamDepth
	}
	return &Pipeline{C: c, depth: depth, sem: make(chan struct{}, depth)}
}

// Submit blocks until an admission slot frees, then dispatches x's
// tiles and returns the in-flight handle. The slot is released when the
// handle's Wait finishes, so at most Depth images overlap. Every
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
	p.observeDepth()
	return nil
}

// SubmitReserved is Submit for a caller already holding a slot from
// Reserve: the slot travels with the returned handle, or is released
// here when the dispatch fails.
func (p *Pipeline) SubmitReserved(ctx context.Context, x *tensor.Tensor) (*Inflight, error) {
	release := func() {
		<-p.sem
		p.observeDepth()
	}
	h, err := p.C.InferAsync(ctx, x)
	if err != nil {
		release()
		return nil, err
	}
	h.release = release
	return h, nil
}

func (p *Pipeline) observeDepth() {
	if m := p.C.metrics; m != nil {
		m.PipelineDepth.Set(float64(len(p.sem)))
	}
}

// PipelineResult is one streamed inference's outcome, delivered in
// submission order.
type PipelineResult struct {
	Index int
	Out   *tensor.Tensor
	Stats InferStats
	Err   error
}

// Run streams every input through the pipeline: a feeder submits images
// as admission slots free up while the collector Waits on them in
// submission order, so image i's back layers run while image i+1's
// tiles are already on the Conv nodes. The result channel closes after
// the last input's result. A submit failure is reported as that index's
// result; the stream keeps going so one bad image doesn't stall the
// rest (cancel ctx to abort everything).
func (p *Pipeline) Run(ctx context.Context, inputs <-chan *tensor.Tensor) <-chan PipelineResult {
	type slot struct {
		h   *Inflight
		err error
	}
	handles := make(chan slot, p.depth)
	out := make(chan PipelineResult)
	go func() {
		defer close(handles)
		for x := range inputs {
			h, err := p.Submit(ctx, x)
			handles <- slot{h, err}
			if err != nil && ctx.Err() != nil {
				return
			}
		}
	}()
	go func() {
		defer close(out)
		i := 0
		for s := range handles {
			r := PipelineResult{Index: i, Err: s.err}
			if s.err == nil {
				r.Out, r.Stats, r.Err = s.h.Wait()
			}
			out <- r
			i++
		}
	}()
	return out
}
