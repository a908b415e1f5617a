// Package parallel provides the concurrent sharded-ingest machinery
// that turns the repository's linear sketches into multi-core
// pipelines. Every construction here is a linear function of the update
// stream, so a stream split into P shards, ingested into P independent
// states built from the same seed, and merged yields a state identical
// to single-threaded ingestion — the distributed-servers setting of the
// paper's introduction, realized as goroutines.
//
// Execution is governed by a Policy: context (cancellation), worker
// count, batch size, and an optional progress callback. Replayable
// in-memory sources are sharded (each worker replays its own
// round-robin view); single-cursor sources (a pipe on stdin, a live
// channel) are read once by a dispatcher that fans batches out to the
// workers — by linearity both strategies produce states identical to a
// serial pass.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dynstream/internal/obs"
	"dynstream/internal/stream"
)

// Policy bundles the execution parameters of one build: cancellation
// context, worker count, update-batch size, an optional progress
// callback, and an optional tracer. A single Policy is threaded
// through every pass of a build so cancellation, progress, and trace
// spans are cumulative across passes.
type Policy struct {
	ctx      context.Context
	workers  int
	batch    int
	decode   int // decode-phase worker count; 0 follows workers
	progress func(int64)
	tracer   *obs.Tracer // nil disables tracing
	done     *int64      // cumulative updates processed, shared across passes
}

// NewPolicy creates an execution policy. ctx may be nil (no
// cancellation); workers must be >= 1; batch <= 0 selects
// stream.DefaultBatchSize; progress, when non-nil, receives the
// cumulative number of updates processed (across all passes and
// shards) and must be safe for concurrent use.
func NewPolicy(ctx context.Context, workers, batch int, progress func(int64)) *Policy {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Policy{ctx: ctx, workers: workers, batch: batch, progress: progress, done: new(int64)}
}

// Default is the serial no-frills policy legacy entry points run under.
func Default() *Policy { return NewPolicy(nil, 1, 0, nil) }

// WithWorkers returns a policy like p but with the given worker count,
// sharing p's context, batch size, progress sink, and counter. Used by
// multi-stage pipelines whose inner builds run serially.
func (p *Policy) WithWorkers(workers int) *Policy {
	cp := *p
	cp.workers = workers
	return &cp
}

// WithDecode returns a policy like p but with the given decode-phase
// worker count (0 makes decode follow the ingest worker count).
func (p *Policy) WithDecode(workers int) *Policy {
	cp := *p
	cp.decode = workers
	return &cp
}

// WithTracer returns a policy like p but with the given tracer (nil
// disables tracing), sharing p's context, batch size, progress sink,
// and counter. Every pass run under the policy emits its phase spans
// and ingest totals to the tracer; instrumentation is observational
// only, so a traced build's output is bit-identical to an untraced
// one.
func (p *Policy) WithTracer(t *obs.Tracer) *Policy {
	cp := *p
	cp.tracer = t
	return &cp
}

// Tracer returns the policy's tracer; nil means tracing is off. The
// returned value is safe to call methods on either way — a nil
// *obs.Tracer is the disabled tracer.
func (p *Policy) Tracer() *obs.Tracer { return p.tracer }

// Context returns the policy's context (never nil).
func (p *Policy) Context() context.Context { return p.ctx }

// Workers returns the policy's worker count.
func (p *Policy) Workers() int { return p.workers }

// DecodeWorkers returns the worker count decode stages run at: the
// explicit WithDecode override when set, otherwise the ingest worker
// count.
func (p *Policy) DecodeWorkers() int {
	if p.decode > 0 {
		return p.decode
	}
	return p.workers
}

// DecodePolicy returns the policy decode stages run under: same
// context, batch size, and progress sink, with Workers() set to
// DecodeWorkers(). Extraction code takes a plain Policy, so ingest
// drivers call this once at the ingest/decode boundary. A nil policy
// decodes serially: its DecodePolicy is Default().
func (p *Policy) DecodePolicy() *Policy {
	if p == nil {
		return Default()
	}
	cp := *p
	cp.workers = p.DecodeWorkers()
	cp.decode = 0
	return &cp
}

// tick is the per-batch bookkeeping hook: it observes cancellation and
// publishes progress. n is the number of updates in the batch. The
// cumulative total is computed once and fanned to both sinks: the
// legacy direct callback and the tracer's ingest event (which carries
// its own observers — the public WithProgress option rides there).
func (p *Policy) tick(n int) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if n > 0 && (p.progress != nil || p.tracer != nil) {
		total := atomic.AddInt64(p.done, int64(n))
		if p.progress != nil {
			p.progress(total)
		}
		p.tracer.Ingested(total)
	}
	return nil
}

// validate checks the worker count.
func (p *Policy) validate() error {
	if p.workers < 1 {
		return fmt.Errorf("parallel: workers must be >= 1, got %d", p.workers)
	}
	return nil
}

// Validate reports whether the policy is executable (workers >= 1); a
// nil policy is (it means serial). Decode entry points call it before
// sizing per-worker scratch state.
func (p *Policy) Validate() error {
	if p == nil {
		return nil
	}
	return p.validate()
}

// Replay drives one serial batched pass over src under the policy:
// updates are delivered to fn in slices of at most the policy's batch
// size, with a cancellation check and progress tick per batch. The
// batch slice is reused between calls.
func (p *Policy) Replay(src stream.Source, fn func([]stream.Update) error) error {
	return stream.ReplayBatches(src, p.batch, func(b []stream.Update) error {
		if err := p.tick(len(b)); err != nil {
			return err
		}
		return fn(b)
	})
}

// errAbort signals the dispatcher to stop because a worker already
// failed; the worker's error takes precedence in the result.
var errAbort = errors.New("parallel: aborted after worker failure")

// IngestOpts is the policy-driven sharded-ingest pipeline for batched
// states: split (or fan out) src across the policy's workers, build a
// state per worker with newState, feed batches through update, then
// fold the per-worker states into the first one with merge. States
// must be built from identical randomness (same seed and parameters).
// The merged state is identical to a serial pass, because every update
// operation is a commutative group operation.
func IngestOpts[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var zero S
	if err := p.validate(); err != nil {
		return zero, err
	}
	sp := p.tracer.Span("ingest")
	before := atomic.LoadInt64(p.done)
	s, err := ingestDispatch(p, src, newState, update, merge)
	if err != nil {
		return zero, err
	}
	sp.End(
		obs.A("updates", atomic.LoadInt64(p.done)-before),
		obs.A("workers", int64(p.workers)))
	return s, nil
}

// ingestDispatch picks the ingest strategy: serial, sharded replay, or
// single-cursor fan-out.
func ingestDispatch[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var zero S
	if p.workers == 1 {
		s, err := newState()
		if err != nil {
			return zero, err
		}
		if err := p.Replay(src, func(b []stream.Update) error { return update(s, b) }); err != nil {
			return zero, err
		}
		return s, nil
	}
	if stream.ConcurrentReplayable(src) {
		return shardIngest(p, src, newState, update, merge)
	}
	return fanoutIngest(p, src, newState, update, merge)
}

// shardSpan opens the per-shard ingest span; the Sprintf only runs
// when tracing is on.
func (p *Policy) shardSpan(i int) obs.Span {
	if p.tracer == nil {
		return obs.Span{}
	}
	return p.tracer.Span(fmt.Sprintf("ingest/shard%02d", i))
}

// shardIngest runs one worker per round-robin shard, each replaying
// its own view of src concurrently (src must be safe for concurrent
// Replay). Merging happens in shard order so runs are reproducible.
func shardIngest[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var zero S
	shards, err := stream.Split(src, p.workers)
	if err != nil {
		return zero, err
	}
	states := make([]S, p.workers)
	errs := make([]error, p.workers)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := p.shardSpan(i)
			s, err := newState()
			if err != nil {
				errs[i] = err
				return
			}
			var n int64
			errs[i] = stream.ReplayBatches(shards[i], p.batch, func(b []stream.Update) error {
				if err := p.tick(len(b)); err != nil {
					return err
				}
				n += int64(len(b))
				return update(s, b)
			})
			states[i] = s
			sp.End(obs.A("updates", n))
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return zero, fmt.Errorf("parallel: shard %d: %w", i, e)
		}
	}
	msp := p.tracer.Span("ingest/merge")
	for i := 1; i < p.workers; i++ {
		if err := merge(states[0], states[i]); err != nil {
			return zero, err
		}
	}
	msp.End(obs.A("states", int64(p.workers)))
	return states[0], nil
}

// fanoutIngest reads src once on the calling goroutine and distributes
// copied batches to the workers over a channel — the strategy for
// single-cursor sources (pipes, channels) that cannot be replayed
// concurrently. Batch-to-worker assignment is scheduling-dependent,
// but by linearity the merged state is identical regardless of which
// worker ingests which batch.
func fanoutIngest[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var zero S
	states := make([]S, p.workers)
	errs := make([]error, p.workers)
	ch := make(chan []stream.Update, 2*p.workers)
	var failed int32
	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := p.shardSpan(i)
			s, err := newState()
			if err != nil {
				errs[i] = err
				atomic.StoreInt32(&failed, 1)
			}
			// Keep draining even after a failure so the dispatcher's
			// sends never block; batches are simply discarded.
			var n int64
			for b := range ch {
				if errs[i] != nil {
					continue
				}
				n += int64(len(b))
				if err := update(s, b); err != nil {
					errs[i] = err
					atomic.StoreInt32(&failed, 1)
				}
			}
			if errs[i] == nil {
				states[i] = s
				sp.End(obs.A("updates", n))
			}
		}(i)
	}
	derr := stream.ReplayBatches(src, p.batch, func(b []stream.Update) error {
		if err := p.tick(len(b)); err != nil {
			return err
		}
		if atomic.LoadInt32(&failed) != 0 {
			return errAbort
		}
		cp := make([]stream.Update, len(b))
		copy(cp, b)
		ch <- cp
		return nil
	})
	close(ch)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return zero, fmt.Errorf("parallel: worker %d: %w", i, e)
		}
	}
	if derr != nil {
		return zero, derr
	}
	msp := p.tracer.Span("ingest/merge")
	for i := 1; i < p.workers; i++ {
		if err := merge(states[0], states[i]); err != nil {
			return zero, err
		}
	}
	msp.End(obs.A("states", int64(p.workers)))
	return states[0], nil
}

// State is a linear sketch state that can ingest stream updates and be
// merged with another state built from the same randomness.
type State[S any] interface {
	AddUpdate(stream.Update)
	Merge(S) error
}

// BatchState is a linear sketch state that can ingest whole update
// batches — the fast path: one virtual dispatch and one shard-replay
// round trip per batch instead of per update.
type BatchState[S any] interface {
	AddBatch([]stream.Update)
	Merge(S) error
}

// Ingest splits st into `workers` round-robin shards, feeds each shard
// into its own fresh state on its own goroutine, and merges the
// per-shard states into one. newState must return states built from
// identical randomness (same seed and parameters) or the merge will
// fail.
func Ingest[S State[S]](st stream.Source, workers int, newState func() S) (S, error) {
	return IngestOpts(Default().WithWorkers(workers), st,
		func() (S, error) { return newState(), nil },
		func(s S, batch []stream.Update) error {
			for _, u := range batch {
				s.AddUpdate(u)
			}
			return nil
		},
		func(dst, src S) error { return dst.Merge(src) })
}

// IngestBatchedOpts is IngestOpts over the batched update API of a
// BatchState. Because every AddBatch in this repository is defined as
// the per-update fold, the result is bit-identical to update-at-a-time
// ingestion — only faster.
func IngestBatchedOpts[S BatchState[S]](p *Policy, st stream.Source, newState func() S) (S, error) {
	return IngestOpts(p, st,
		func() (S, error) { return newState(), nil },
		func(s S, batch []stream.Update) error { s.AddBatch(batch); return nil },
		func(dst, src S) error { return dst.Merge(src) })
}

// ForEachOpts runs fn(0..n-1) on up to the policy's workers and waits
// for all of them. Dispatch stops at the first cancellation; already
// dispatched tasks run to completion. The first error (by index) is
// returned, which keeps the failure deterministic.
func ForEachOpts(p *Policy, n int, fn func(i int) error) error {
	return ForEachWorkerOpts(p, n, func(_, i int) error { return fn(i) })
}

// ForEach runs fn(0..n-1) on up to `workers` goroutines and waits for
// all of them. All indices run even if some fail; the first error (by
// index) is returned.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachOpts(Default().WithWorkers(workers), n, fn)
}
