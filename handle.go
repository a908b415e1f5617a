package dynstream

import (
	"context"
	"fmt"
	"sync"

	"dynstream/internal/agm"
	"dynstream/internal/dynnet"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
)

// Handle is a live build: where Build ingests a stream and decodes
// once, Open returns a handle whose sketch state stays mutable —
// further updates fold in with Apply, and every Query decodes the
// current state into a fresh Answer. Because every construction is a
// linear sketch, a query after any sequence of Apply batches is
// bit-identical to Decode of a cold Build over the concatenated
// stream, at every worker count.
//
// Queries are served incrementally: each target keeps per-region
// decode caches — per-component sampler picks for the AGM family,
// per-center cluster attachments and per-terminal recoveries for the
// spanner, per-cell grid extractions for the sparsifier — keyed by
// injective state digests over monotonic generation counters, so only
// the regions an Apply actually touched are re-decoded. The caches are
// on by default for handles; WithDecodeCache(false) disables them
// (queries then re-extract cold but remain identical).
//
// A Handle is safe for concurrent use: an internal mutex serializes
// Apply/Query/Merge/Invalidate/Checkpoint, and a Query decodes under
// it, so its Answer is a consistent batch-boundary snapshot that
// shares nothing with the live state. Concurrent callers still need
// their own ordering if they care which updates a query observes.
type Handle struct {
	mu   sync.Mutex
	n    int
	src  Source
	o    *buildOptions
	live liveState
	// answer renders what live.query returns (the target's result type
	// R, erased to any) — the target's own answer method.
	answer func(res any, p *parallel.Policy) (*Answer, error)
	// applied counts the updates folded in with Apply since Open (or
	// since the checkpointed handle's own Open, for a restored handle).
	// It is written into every checkpoint, so a restorer knows exactly
	// which stream suffix to replay.
	applied int64
}

// CacheStats reports the live state's decode-cache traffic: Hits counts
// cached region decodes (component picks, cluster attachments, terminal
// recoveries, per-vertex peels) reused because their generation-counter
// digests proved the inputs unchanged; Misses counts regions that had
// to re-decode. Both are cumulative over the handle's lifetime and only
// advance while the cache is enabled (WithDecodeCache). The serving
// layer exports them as Prometheus counters.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// liveState is the per-target mutable state behind a Handle.
type liveState interface {
	apply(batch []Update) error
	// query returns the target's result type R for its answer method:
	// the live sketch itself for the AGM family (the answer decodes
	// it, still under the handle mutex), a freshly extracted result
	// for the spanner, additive spanner and sparsifier.
	query(p *parallel.Policy) (any, error)
	enableCache(on bool)
	invalidate()
	// cacheStats reports cumulative decode-cache hits and misses (see
	// CacheStats).
	cacheStats() (hits, misses uint64)
	merge(state any) error
	// snapshot returns the state's kind tag and its serialized live
	// contents for Handle.Checkpoint (see checkpoint.go).
	snapshot() (dynnet.StateKind, []byte, error)
}

// newHandle wraps a target's live state; applied is the update count
// the state already holds (non-zero only for a restored handle).
func newHandle[R any](src Source, o *buildOptions, target Target[R], live liveState, applied int64) *Handle {
	live.enableCache(o.cacheOn())
	return &Handle{
		n: src.N(), src: src, o: o, live: live, applied: applied,
		answer: func(res any, p *parallel.Policy) (*Answer, error) { return target.answer(res.(R), p) },
	}
}

// Open is the live front door: it ingests src into the target's sketch
// state — exactly as Build would — and returns a Handle serving
// Apply/Query instead of a one-shot result.
//
// Live handles run locally: the remote options (WithRemoteWorkers,
// WithRemoteCluster, WithWorkerShards) are rejected — ship marshaled
// sketch states from remote processes and fold them in with
// Handle.Merge instead. WithWeightClasses is rejected too (the class
// split is a per-build reduction, not a live state). MSFTarget needs
// an explicit WMax: a scanned bound could be exceeded by a later
// Apply batch. Multi-pass targets (spanner, sparsifier) need a
// replayable source, which the handle retains for re-extraction.
func Open[R any](ctx context.Context, src Source, target Target[R], opts ...Option) (*Handle, error) {
	o, err := liveOptions(src, target, opts)
	if err != nil {
		return nil, err
	}
	// The tracer (and the WithProgress observer riding on it) persists
	// for the handle's lifetime: ingest here, then every Query and
	// Checkpoint report into the same tracer.
	tr, _ := o.effectiveTracer()
	o.tracer = tr
	live, err := target.openLive(src, o, o.livePolicy(ctx, src))
	if err != nil {
		return nil, err
	}
	return newHandle(src, o, target, live, 0), nil
}

// liveOptions is the shared gate of Open and Restore: the options must
// pass Build's checks plus the live-only ones, and a multi-pass target
// needs a replayable source.
func liveOptions[R any](src Source, target Target[R], opts []Option) (*buildOptions, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: nil source", ErrBadConfig)
	}
	if target == nil {
		return nil, fmt.Errorf("%w: nil target", ErrBadConfig)
	}
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.validateLive(); err != nil {
		return nil, err
	}
	if target.Passes() > 1 && !CanReplay(src) {
		return nil, fmt.Errorf("dynstream: %T needs %d passes over the stream: %w",
			target, target.Passes(), ErrNotReplayable)
	}
	return o, nil
}

// livePolicy is the execution policy of a handle's ingest and queries.
func (o *buildOptions) livePolicy(ctx context.Context, src Source) *parallel.Policy {
	return parallel.NewPolicy(ctx, o.resolveWorkers(src), o.batch, nil).
		WithDecode(o.resolveDecodeWorkers(src)).WithTracer(o.tracer)
}

// BuildHandle is Open under Build's naming, for callers migrating from
// the one-shot front door.
func BuildHandle[R any](ctx context.Context, src Source, target Target[R], opts ...Option) (*Handle, error) {
	return Open(ctx, src, target, opts...)
}

// N returns the vertex count.
func (h *Handle) N() int { return h.n }

// Apply folds a batch of updates into the live sketch state. Updates
// are validated and canonicalized exactly as a MemoryStream.Append
// would, so a Query afterwards matches a cold Build over the base
// stream plus every applied batch.
func (h *Handle) Apply(updates []Update) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	checked := make([]Update, 0, len(updates))
	for _, u := range updates {
		cu, err := stream.CheckUpdate(u, h.n)
		if err != nil {
			return fmt.Errorf("dynstream: Apply: %w", err)
		}
		checked = append(checked, cu)
	}
	if err := h.live.apply(checked); err != nil {
		return err
	}
	h.applied += int64(len(checked))
	return nil
}

// AppliedUpdates returns the number of updates folded in with Apply
// over this handle's lifetime — for a handle from Restore, continuing
// the checkpointed handle's count. A caller replaying a stream through
// Apply can therefore checkpoint at any point, crash, Restore, and
// resume from exactly update AppliedUpdates() of its log.
func (h *Handle) AppliedUpdates() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.applied
}

// Query decodes the live state's current contents into an Answer —
// bit-identical to Decode of a Build over the total stream, at any
// worker count. The decode and the read of the applied-update count
// (Answer.Applied) happen under one hold of the handle's mutex, so a
// concurrent server can prove each answer against an offline build
// over exactly the first Applied updates of its log; the count always
// lands on a batch boundary (Apply is all-or-nothing). The whole
// decode runs inside the handle tracer's "query" span, so a trace of
// the query covers its Borůvka rounds, cluster decode and peeling.
func (h *Handle) Query(ctx context.Context) (*Answer, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sp := h.o.tracer.Span("query")
	p := h.o.livePolicy(ctx, h.src)
	res, err := h.live.query(p)
	if err != nil {
		return nil, err
	}
	a, err := h.answer(res, p)
	if err != nil {
		return nil, err
	}
	a.Applied = h.applied
	sp.End(obs.A("applied", h.applied))
	return a, nil
}

// DecodeCacheStats reports the cumulative decode-cache hit/miss
// counters of the live state (see CacheStats).
func (h *Handle) DecodeCacheStats() CacheStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	hits, misses := h.live.cacheStats()
	return CacheStats{Hits: hits, Misses: misses}
}

// Merge folds another sketch state — typically unmarshaled from a
// remote worker's SKETCH blob — into the live state. The merged-in
// state must be the target's own state type built with the same
// configuration and seed: *ForestSketch, *KConnectivity,
// *Bipartiteness, *MSF, or *AdditiveSpanner. Generation counters bump
// only on the samplers the merge actually changed, so the next Query
// re-decodes exactly the touched components. Two-pass targets
// (SpannerTarget, SparsifierTarget) reject Merge: their live log
// cannot absorb updates it never saw — Apply the remote updates, or
// merge pass-1 states before Open.
func (h *Handle) Merge(state any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live.merge(state)
}

// Invalidate drops every cached decode, so the next Query re-extracts
// from scratch. Correctness never requires it — the digest checks
// already reject stale cache entries — it only bounds memory or forces
// a cold decode for measurement.
func (h *Handle) Invalidate() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.live.invalidate()
}

// ---- per-target live states ----

type forestLive struct{ s *agm.Sketch }

func (l forestLive) apply(b []Update) error              { l.s.AddBatch(b); return nil }
func (l forestLive) query(*parallel.Policy) (any, error) { return l.s, nil }
func (l forestLive) enableCache(on bool)                 { l.s.EnableDecodeCache(on) }
func (l forestLive) invalidate()                         { l.s.InvalidateDecodeCache() }
func (l forestLive) cacheStats() (uint64, uint64)        { return l.s.DecodeCacheStats() }
func (l forestLive) merge(state any) error {
	o, ok := state.(*agm.Sketch)
	if !ok {
		return fmt.Errorf("%w: a ForestTarget handle merges *ForestSketch, got %T", ErrBadConfig, state)
	}
	return l.s.Merge(o)
}

func (t ForestTarget) openLive(src Source, o *buildOptions, p *parallel.Policy) (liveState, error) {
	s, err := t.build(src, o, p)
	if err != nil {
		return nil, err
	}
	return forestLive{s}, nil
}

type kconnLive struct{ kc *agm.KConnectivity }

func (l kconnLive) apply(b []Update) error              { l.kc.AddBatch(b); return nil }
func (l kconnLive) query(*parallel.Policy) (any, error) { return l.kc, nil }
func (l kconnLive) enableCache(on bool)                 { l.kc.EnableDecodeCache(on) }
func (l kconnLive) invalidate()                         { l.kc.InvalidateDecodeCache() }
func (l kconnLive) cacheStats() (uint64, uint64)        { return l.kc.DecodeCacheStats() }
func (l kconnLive) merge(state any) error {
	o, ok := state.(*agm.KConnectivity)
	if !ok {
		return fmt.Errorf("%w: a KConnectivityTarget handle merges *KConnectivity, got %T", ErrBadConfig, state)
	}
	return l.kc.Merge(o)
}

func (t KConnectivityTarget) openLive(src Source, o *buildOptions, p *parallel.Policy) (liveState, error) {
	kc, err := t.build(src, o, p)
	if err != nil {
		return nil, err
	}
	return kconnLive{kc}, nil
}

type bipLive struct{ b *agm.Bipartiteness }

func (l bipLive) apply(b []Update) error              { l.b.AddBatch(b); return nil }
func (l bipLive) query(*parallel.Policy) (any, error) { return l.b, nil }
func (l bipLive) enableCache(on bool)                 { l.b.EnableDecodeCache(on) }
func (l bipLive) invalidate()                         { l.b.InvalidateDecodeCache() }
func (l bipLive) cacheStats() (uint64, uint64)        { return l.b.DecodeCacheStats() }
func (l bipLive) merge(state any) error {
	o, ok := state.(*agm.Bipartiteness)
	if !ok {
		return fmt.Errorf("%w: a BipartitenessTarget handle merges *Bipartiteness, got %T", ErrBadConfig, state)
	}
	return l.b.Merge(o)
}

func (t BipartitenessTarget) openLive(src Source, o *buildOptions, p *parallel.Policy) (liveState, error) {
	b, err := t.build(src, o, p)
	if err != nil {
		return nil, err
	}
	return bipLive{b}, nil
}

type msfLive struct{ m *agm.MSF }

func (l msfLive) apply(b []Update) error              { l.m.AddBatch(b); return nil }
func (l msfLive) query(*parallel.Policy) (any, error) { return l.m, nil }
func (l msfLive) enableCache(on bool)                 { l.m.EnableDecodeCache(on) }
func (l msfLive) invalidate()                         { l.m.InvalidateDecodeCache() }
func (l msfLive) cacheStats() (uint64, uint64)        { return l.m.DecodeCacheStats() }
func (l msfLive) merge(state any) error {
	o, ok := state.(*agm.MSF)
	if !ok {
		return fmt.Errorf("%w: an MSFTarget handle merges *MSF, got %T", ErrBadConfig, state)
	}
	return l.m.Merge(o)
}

func (t MSFTarget) openLive(src Source, o *buildOptions, p *parallel.Policy) (liveState, error) {
	if t.WMax <= 0 {
		return nil, fmt.Errorf("%w: a live MSF handle needs an explicit WMax (a scanned bound could be exceeded by a later Apply)", ErrBadConfig)
	}
	m, err := t.build(src, o, p)
	if err != nil {
		return nil, err
	}
	return msfLive{m}, nil
}

type additiveLive struct{ a *spanner.Additive }

func (l additiveLive) apply(b []Update) error                { return l.a.AddBatch(b) }
func (l additiveLive) query(p *parallel.Policy) (any, error) { return l.a.ExtractOpts(p) }
func (l additiveLive) enableCache(on bool)                   { l.a.EnableDecodeCache(on) }
func (l additiveLive) invalidate()                           { l.a.InvalidateDecodeCache() }
func (l additiveLive) cacheStats() (uint64, uint64)          { return l.a.DecodeCacheStats() }
func (l additiveLive) merge(state any) error {
	o, ok := state.(*spanner.Additive)
	if !ok {
		return fmt.Errorf("%w: an AdditiveTarget handle merges *AdditiveSpanner, got %T", ErrBadConfig, state)
	}
	return l.a.Merge(o)
}

func (t AdditiveTarget) openLive(src Source, o *buildOptions, p *parallel.Policy) (liveState, error) {
	cfg := t.Config
	if o.seedSet {
		cfg.Seed = o.seed
	}
	a, err := parallel.IngestOpts(p, src,
		func() (*spanner.Additive, error) { return spanner.NewAdditive(src.N(), cfg), nil },
		(*spanner.Additive).AddBatch, (*spanner.Additive).Merge)
	if err != nil {
		return nil, err
	}
	return additiveLive{a}, nil
}

type twoPassLive struct{ tp *spanner.TwoPass }

func (l twoPassLive) apply(b []Update) error                { return l.tp.ApplyLive(b) }
func (l twoPassLive) query(p *parallel.Policy) (any, error) { return l.tp.QueryLive(p) }
func (l twoPassLive) enableCache(on bool)                   { l.tp.EnableDecodeCache(on) }
func (l twoPassLive) invalidate()                           { l.tp.InvalidateDecodeCache() }
func (l twoPassLive) cacheStats() (uint64, uint64)          { return l.tp.DecodeCacheStats() }
func (l twoPassLive) merge(any) error {
	return fmt.Errorf("%w: a two-pass spanner handle cannot merge remote state (its live log never saw those updates); Apply them instead", ErrBadConfig)
}

func (t SpannerTarget) openLive(src Source, o *buildOptions, _ *parallel.Policy) (liveState, error) {
	// Ingest is the serial replay StartLive runs; queries use the
	// per-call policy.
	cfg := t.Config
	if o.seedSet {
		cfg.Seed = o.seed
	}
	tp := spanner.NewTwoPass(src.N(), cfg)
	if err := tp.StartLive(src.(Stream)); err != nil {
		return nil, err
	}
	return twoPassLive{tp}, nil
}

type sparsifyLive struct{ ls *sparsify.Live }

func (l sparsifyLive) apply(b []Update) error                { return l.ls.Apply(b) }
func (l sparsifyLive) query(p *parallel.Policy) (any, error) { return l.ls.Query(p) }
func (l sparsifyLive) enableCache(on bool)                   { l.ls.EnableDecodeCache(on) }
func (l sparsifyLive) invalidate()                           { l.ls.InvalidateDecodeCache() }
func (l sparsifyLive) cacheStats() (uint64, uint64)          { return l.ls.DecodeCacheStats() }
func (l sparsifyLive) merge(any) error {
	return fmt.Errorf("%w: a sparsifier handle cannot merge remote state (its live logs never saw those updates); Apply them instead", ErrBadConfig)
}

func (t SparsifierTarget) openLive(src Source, o *buildOptions, _ *parallel.Policy) (liveState, error) {
	cfg := t.Config
	if o.seedSet {
		cfg.Seed = o.seed
	}
	ls, err := sparsify.StartLive(src.(Stream), cfg)
	if err != nil {
		return nil, err
	}
	return sparsifyLive{ls}, nil
}
