package dynstream

import (
	"context"
	"errors"
	"fmt"

	"dynstream/internal/agm"
	"dynstream/internal/dynnet"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
)

// Build is the single front door for every construction in this
// package: it runs `target` over `src` under the given options and
// context. All targets are linear sketches, so the three axes compose
// freely —
//
//	any sketch (target) × any source × any execution policy (options)
//
// and the result is bit-identical across execution policies: serial,
// sharded-merge (WithWorkers), any batch size. Cancellation via ctx is
// observed at update-batch granularity through every pass, including
// inside the sparsifier's inner spanner builds.
//
//	res, err := dynstream.Build(ctx, src,
//	    dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 7}},
//	    dynstream.WithWorkers(8))
//
// Multi-pass targets (SpannerTarget, SparsifierTarget, and MSFTarget
// without an explicit WMax) need a replayable source — a MemoryStream
// or a file-backed ReaderSource; single-pass targets ingest straight
// from pipes and channels at constant memory.
func Build[R any](ctx context.Context, src Source, target Target[R], opts ...Option) (R, error) {
	var zero R
	if src == nil {
		return zero, fmt.Errorf("%w: nil source", ErrBadConfig)
	}
	if target == nil {
		return zero, fmt.Errorf("%w: nil target", ErrBadConfig)
	}
	o, err := resolveOptions(opts)
	if err != nil {
		return zero, err
	}
	if target.Passes() > 1 && !CanReplay(src) {
		return zero, fmt.Errorf("dynstream: %T needs %d passes over the stream: %w",
			target, target.Passes(), ErrNotReplayable)
	}
	tr, traceDone := o.effectiveTracer()
	defer traceDone()
	res, err := buildDispatch(ctx, src, target, o, tr)
	if err != nil {
		return res, err
	}
	if werr := o.writeTraceFile(tr); werr != nil {
		return res, werr
	}
	return res, nil
}

// buildDispatch routes a validated Build between the remote and local
// execution paths. tr (possibly nil) is the resolved tracer; the
// progress callback, when any, is already registered on it, so
// policies carry only the tracer.
func buildDispatch[R any](ctx context.Context, src Source, target Target[R], o *buildOptions, tr *obs.Tracer) (R, error) {
	var zero R
	if o.remote() {
		cluster := o.cluster
		var dialErr error
		if cluster == nil {
			cluster, dialErr = DialWorkersWith(ctx, o.remoteOpts, o.remoteAddrs...)
			if dialErr == nil {
				defer cluster.Close()
			}
		}
		var res R
		var err error
		if dialErr != nil {
			res, err = zero, dialErr
		} else {
			decodeP := parallel.NewPolicy(ctx, o.resolveDecodeWorkers(src), o.batch, nil).
				WithTracer(tr)
			res, err = target.buildRemote(ctx, src, o, &remoteRun{cluster: cluster, o: o, p: decodeP})
		}
		// Opt-in degradation: when the whole cluster is gone (every
		// worker unreachable or lost mid-build) and the source can be
		// replayed, rerun the build locally — bit-identical by
		// linearity, since local and remote ingest share seeds. Typed
		// worker errors and ctx cancellation are not retried. A
		// WithProgress callback sees the local rerun's counts on top of
		// whatever the aborted remote build reported.
		clusterLost := dialErr != nil || errors.Is(err, dynnet.ErrNoWorkers)
		if err != nil && o.localFallback && ctx.Err() == nil &&
			clusterLost && CanReplay(src) {
			p := parallel.NewPolicy(ctx, o.resolveWorkers(src), o.batch, nil).
				WithDecode(o.resolveDecodeWorkers(src)).WithTracer(tr)
			return target.build(src, o, p)
		}
		return res, err
	}
	p := parallel.NewPolicy(ctx, o.resolveWorkers(src), o.batch, nil).
		WithDecode(o.resolveDecodeWorkers(src)).WithTracer(tr)
	return target.build(src, o, p)
}

// Target describes what Build constructs: each target couples a
// configuration with the recipe that drives its sketch states over a
// source under an execution policy. R is the result type. Targets are
// provided by this package (SpannerTarget, AdditiveTarget,
// SparsifierTarget, ForestTarget, KConnectivityTarget,
// BipartitenessTarget, MSFTarget); the interface is sealed by its
// unexported methods.
type Target[R any] interface {
	// Passes is the number of full stream passes the target needs (for
	// replayability validation; multi-phase targets report > 1).
	Passes() int
	// build runs the construction under the resolved options/policy.
	build(src Source, o *buildOptions, p *parallel.Policy) (R, error)
	// buildRemote runs the construction on remote worker processes
	// (WithRemoteWorkers / WithRemoteCluster), producing the same
	// result bit for bit.
	buildRemote(ctx context.Context, src Source, o *buildOptions, r *remoteRun) (R, error)
	// openLive ingests src and returns the mutable state behind a live
	// Handle (see Open); its query yields an R.
	openLive(src Source, o *buildOptions, p *parallel.Policy) (liveState, error)
	// restoreLive rebuilds the live state behind a Handle from a
	// checkpoint's state section (see Restore in checkpoint.go).
	restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error)
	// answer decodes a result (or sketch) under the decode policy p
	// into the Answer every frontend renders (see Decode and
	// Handle.Query; answer.go).
	answer(res R, p *parallel.Policy) (*Answer, error)
}

// noWeightClasses rejects WithWeightClasses for targets without a
// weight-class mode.
func noWeightClasses(o *buildOptions, what string) error {
	if o.classBase != 0 {
		return fmt.Errorf("%w: %s has no weight-class mode", ErrBadConfig, what)
	}
	return nil
}

// SpannerTarget builds the two-pass 2^K-spanner of Theorem 1
// (BuildSpanner's successor). With WithWeightClasses it runs the
// weight-class construction of Remark 14.
type SpannerTarget struct {
	Config SpannerConfig
}

func (t SpannerTarget) Passes() int { return 2 }

func (t SpannerTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*SpannerResult, error) {
	cfg := t.Config
	if o.seedSet {
		cfg.Seed = o.seed
	}
	if o.classBase != 0 {
		return spanner.BuildTwoPassWeightedOpts(src, cfg, o.classBase, p)
	}
	return spanner.BuildTwoPassOpts(src, cfg, p)
}

// AdditiveTarget builds the single-pass O(n/D)-additive spanner of
// Theorem 3 (BuildAdditiveSpanner's successor). Single-pass: works on
// pipes and channels.
type AdditiveTarget struct {
	Config AdditiveConfig
}

func (t AdditiveTarget) Passes() int { return 1 }

func (t AdditiveTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*AdditiveResult, error) {
	if err := noWeightClasses(o, "the additive spanner"); err != nil {
		return nil, err
	}
	cfg := t.Config
	if o.seedSet {
		cfg.Seed = o.seed
	}
	return spanner.BuildAdditiveOpts(src, cfg, p)
}

// SparsifierTarget builds the two-pass ε-spectral sparsifier of
// Corollary 2 (BuildSparsifier's successor). With WithWeightClasses it
// sparsifies per weight class and rescales.
type SparsifierTarget struct {
	Config SparsifierConfig
}

func (t SparsifierTarget) Passes() int { return 2 }

func (t SparsifierTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*SparsifierResult, error) {
	cfg := t.Config
	if o.seedSet {
		cfg.Seed = o.seed
	}
	if o.classBase != 0 {
		return sparsify.SparsifyWeightedOpts(src, cfg, o.classBase, p)
	}
	return sparsify.SparsifyOpts(src, cfg, p)
}

// ForestTarget ingests the stream into an AGM connectivity sketch
// (Theorem 10); Decode extracts its spanning forest. Single-pass.
type ForestTarget struct {
	Seed   uint64
	Config ForestConfig
}

func (t ForestTarget) Passes() int { return 1 }

func (t ForestTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*ForestSketch, error) {
	if err := noWeightClasses(o, "the forest sketch"); err != nil {
		return nil, err
	}
	seed := t.Seed
	if o.seedSet {
		seed = o.seed
	}
	return parallel.IngestBatchedOpts(p, src, func() *agm.Sketch {
		return agm.New(seed, src.N(), t.Config)
	})
}

// KConnectivityTarget ingests the stream into a k-edge-connectivity
// certificate sketch; Decode extracts the certificate. Single-pass.
type KConnectivityTarget struct {
	Seed uint64
	K    int
}

func (t KConnectivityTarget) Passes() int { return 1 }

func (t KConnectivityTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*KConnectivity, error) {
	if err := noWeightClasses(o, "the connectivity certificate"); err != nil {
		return nil, err
	}
	seed := t.Seed
	if o.seedSet {
		seed = o.seed
	}
	return parallel.IngestBatchedOpts(p, src, func() *agm.KConnectivity {
		return agm.NewKConnectivity(seed, src.N(), t.K)
	})
}

// BipartitenessTarget ingests the stream into the double-cover
// bipartiteness tester; Decode gives its verdict. Single-pass.
type BipartitenessTarget struct {
	Seed uint64
}

func (t BipartitenessTarget) Passes() int { return 1 }

func (t BipartitenessTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*Bipartiteness, error) {
	if err := noWeightClasses(o, "the bipartiteness tester"); err != nil {
		return nil, err
	}
	seed := t.Seed
	if o.seedSet {
		seed = o.seed
	}
	return parallel.IngestBatchedOpts(p, src, func() *agm.Bipartiteness {
		return agm.NewBipartiteness(seed, src.N())
	})
}

// MSFTarget ingests the stream into the (1+Gamma)-approximate
// minimum-spanning-forest sketch; Decode extracts the forest. With an
// explicit WMax (upper bound on edge weights) it is single-pass and
// works on pipes; with WMax == 0 it first scans the stream for the
// maximum weight, which needs a replayable source.
type MSFTarget struct {
	Seed  uint64
	WMax  float64
	Gamma float64
}

func (t MSFTarget) Passes() int {
	if t.WMax > 0 {
		return 1
	}
	return 2
}

func (t MSFTarget) build(src Source, o *buildOptions, p *parallel.Policy) (*MSF, error) {
	if err := noWeightClasses(o, "the MSF sketch (weights are native)"); err != nil {
		return nil, err
	}
	seed := t.Seed
	if o.seedSet {
		seed = o.seed
	}
	wmax := t.WMax
	if wmax <= 0 {
		// Upper-bound weight scan to size the class prefixes.
		wmax = 1.0
		err := p.Replay(src, func(batch []Update) error {
			for _, u := range batch {
				if u.W > wmax {
					wmax = u.W
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return parallel.IngestBatchedOpts(p, src, func() *agm.MSF {
		return agm.NewMSF(seed, src.N(), wmax, t.Gamma)
	})
}
