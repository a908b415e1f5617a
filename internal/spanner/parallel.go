package spanner

import (
	"fmt"
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// This file lifts the mergeability of the underlying linear sketches to
// the spanner constructions, and builds the concurrent sharded-ingest
// pipeline on top of it: a stream is split into P round-robin shards,
// each shard is ingested into an independent state created from the
// same configuration (same seed, hence the paper's "agree upon a
// sketching matrix S"), and the states are merged. Every per-update
// operation is a commutative group operation (int64 addition and
// GF(2^61−1) addition), so the merged state is identical — not merely
// equivalent — to single-threaded ingestion, and everything decoded
// from it (clusters, tables, the final spanner) matches exactly.

// MergePass1 adds the first-pass sketch state of another TwoPass built
// with the same configuration. Both states must still be in pass 1; the
// receiver afterwards holds the sketch of the union of the two ingested
// shard streams.
func (tp *TwoPass) MergePass1(o *TwoPass) error {
	if tp.phase != 0 || o.phase != 0 {
		return fmt.Errorf("spanner: MergePass1 in phase %d/%d", tp.phase, o.phase)
	}
	if tp.n != o.n || tp.cfg != o.cfg {
		return fmt.Errorf("spanner: merging incompatible two-pass states (n %d/%d)", tp.n, o.n)
	}
	for u := range tp.vertexSk {
		for r := range tp.vertexSk[u] {
			for j := range tp.vertexSk[u][r] {
				if err := tp.vertexSk[u][r][j].Merge(o.vertexSk[u][r][j]); err != nil {
					return fmt.Errorf("spanner: pass-1 merge (u=%d, r=%d, j=%d): %w", u, r+1, j, err)
				}
			}
		}
	}
	return nil
}

// ForkPass2 returns a pass-2 worker state: it shares tp's immutable
// cluster structure (computed by EndPass1) and owns freshly zeroed
// second-pass tables with the same seeds, so the worker can ingest a
// stream shard independently and be folded back with MergePass2. The
// receiver must have finished pass 1.
func (tp *TwoPass) ForkPass2() (*TwoPass, error) {
	if tp.phase != 1 {
		return nil, fmt.Errorf("spanner: ForkPass2 in phase %d", tp.phase)
	}
	w := &TwoPass{
		cfg:         tp.cfg,
		n:           tp.n,
		k:           tp.k,
		jMax:        tp.jMax,
		yMax:        tp.yMax,
		log2n:       tp.log2n,
		inC:         tp.inC,         // read-only after NewTwoPass
		edgeLevel:   tp.edgeLevel,   // immutable
		yLevel:      tp.yLevel,      // immutable
		copies:      tp.copies,      // read-only after EndPass1
		terminalsOf: tp.terminalsOf, // read-only after EndPass1
		augmented:   map[[2]int]bool{},
		phase:       1,
	}
	w.tables = w.allocTables()
	return w, nil
}

// MergePass2 adds the second-pass table state of a worker created by
// ForkPass2 (or any TwoPass sharing the same configuration and cluster
// structure). Both states must be in pass 2.
func (tp *TwoPass) MergePass2(o *TwoPass) error {
	if tp.phase != 1 || o.phase != 1 {
		return fmt.Errorf("spanner: MergePass2 in phase %d/%d", tp.phase, o.phase)
	}
	if tp.n != o.n || tp.cfg != o.cfg {
		return fmt.Errorf("spanner: merging incompatible two-pass states (n %d/%d)", tp.n, o.n)
	}
	if len(tp.tables) != len(o.tables) {
		return fmt.Errorf("spanner: merging pass-2 states with different cluster structures (%d vs %d tables)",
			len(tp.tables), len(o.tables))
	}
	for ci, row := range tp.tables {
		orow, ok := o.tables[ci]
		if !ok {
			return fmt.Errorf("spanner: pass-2 merge: other state lacks table for copy %d", ci)
		}
		for j := range row {
			if err := row[j].Merge(orow[j]); err != nil {
				return fmt.Errorf("spanner: pass-2 merge (copy=%d, j=%d): %w", ci, j, err)
			}
		}
	}
	for e := range o.augmented {
		tp.augmented[e] = true
	}
	return nil
}

// BuildTwoPassOpts is the policy-driven two-pass build: both passes
// run under p's context (cancellation observed at batch granularity),
// worker count, batch size, and progress sink. The source must be
// replayable (two passes); output is identical to BuildTwoPass for the
// same configuration regardless of the policy.
func BuildTwoPassOpts(src stream.Source, cfg Config, p *parallel.Policy) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("spanner: two-pass build: %w", stream.ErrNotReplayable)
	}
	// Pass 1: independent states, one per shard, batched ingest. At one
	// worker the dispatcher degenerates to a serial replay of the same
	// state — one code path (and one set of trace spans) for all widths.
	main, err := parallel.IngestOpts(p, src,
		func() (*TwoPass, error) { return NewTwoPass(src.N(), cfg), nil },
		(*TwoPass).Pass1AddBatch, (*TwoPass).MergePass1)
	if err != nil {
		return nil, fmt.Errorf("spanner: parallel pass 1: %w", err)
	}
	if err := main.EndPass1Opts(p); err != nil {
		return nil, err
	}
	// Pass 2: fork table-only workers over the shared cluster structure.
	tables, err := parallel.IngestOpts(p, src,
		main.ForkPass2, (*TwoPass).Pass2AddBatch, (*TwoPass).MergePass2)
	if err != nil {
		return nil, fmt.Errorf("spanner: parallel pass 2: %w", err)
	}
	if err := main.MergePass2(tables); err != nil {
		return nil, err
	}
	return main.FinishOpts(p)
}

// BuildTwoPassWeightedOpts is the policy-driven weight-class build of
// Remark 14 (see BuildTwoPassWeighted): each geometric weight class is
// built with BuildTwoPassOpts under the same policy.
func BuildTwoPassWeightedOpts(src stream.Source, cfg Config, classBase float64, p *parallel.Policy) (*Result, error) {
	return BuildTwoPassWeightedWith(src, cfg, classBase, func(sub stream.Source, ccfg Config) (*Result, error) {
		return BuildTwoPassOpts(sub, ccfg, p)
	})
}

// BuildTwoPassWeightedWith is the weight-class construction with an
// injected per-class builder: the class split, per-class seed mixing,
// and weight-rescaled assembly live here once, while build runs each
// class's unweighted two-pass construction — locally under a policy
// (BuildTwoPassWeightedOpts) or on remote workers (the dynnet path).
func BuildTwoPassWeightedWith(src stream.Source, cfg Config, classBase float64, build func(stream.Source, Config) (*Result, error)) (*Result, error) {
	if classBase <= 1 {
		return nil, fmt.Errorf("spanner: classBase must be > 1, got %v", classBase)
	}
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("spanner: weighted two-pass build: %w", stream.ErrNotReplayable)
	}
	classes, sub := stream.WeightClasses(src, classBase)
	out := &Result{Spanner: graph.New(src.N())}
	if cfg.CollectAugmented {
		out.Augmented = graph.New(src.N())
	}
	for _, c := range classes {
		ccfg := cfg
		ccfg.Seed = hashing.Mix(cfg.Seed, 0x3c, uint64(c))
		res, err := build(sub[c], ccfg)
		if err != nil {
			return nil, fmt.Errorf("spanner: weight class %d: %w", c, err)
		}
		wUpper := math.Pow(classBase, float64(c+1))
		for _, e := range res.Spanner.Edges() {
			out.Spanner.AddEdge(e.U, e.V, wUpper)
		}
		if cfg.CollectAugmented && res.Augmented != nil {
			for _, e := range res.Augmented.Edges() {
				out.Augmented.AddEdge(e.U, e.V, wUpper)
			}
		}
		out.SpaceWords += res.SpaceWords
		out.Terminals += res.Terminals
	}
	return out, nil
}

// Merge adds the sketch state of another Additive built with the same
// configuration; the receiver afterwards sketches the union of the two
// ingested streams. Neither state may be finished.
func (a *Additive) Merge(o *Additive) error {
	if a.done || o.done {
		return fmt.Errorf("spanner: additive Merge after Finish")
	}
	if a.n != o.n || a.cfg != o.cfg {
		return fmt.Errorf("spanner: merging incompatible additive states (n %d/%d)", a.n, o.n)
	}
	// Merge is defined over pure stream states: fold any extraction-era
	// E_low subtractions back in on both sides first.
	a.restoreStream()
	o.restoreStream()
	for u := 0; u < a.n; u++ {
		if err := a.nbr[u].Merge(o.nbr[u]); err != nil {
			return fmt.Errorf("spanner: additive merge nbr[%d]: %w", u, err)
		}
		for r := range a.centerS[u] {
			if err := a.centerS[u][r].Merge(o.centerS[u][r]); err != nil {
				return fmt.Errorf("spanner: additive merge centerS[%d][%d]: %w", u, r, err)
			}
		}
		a.degree[u] += o.degree[u]
		if a.degF0 != nil {
			a.degF0[u].Merge(o.degF0[u])
		}
	}
	return a.forest.Merge(o.forest)
}

// BuildAdditiveOpts is the policy-driven single-pass additive build:
// ingestion runs under p's context, workers, batch size, and progress
// sink. Because it is single-pass, any Source works — including pipes
// and channels that cannot be replayed.
func BuildAdditiveOpts(src stream.Source, cfg AdditiveConfig, p *parallel.Policy) (*AdditiveResult, error) {
	main, err := parallel.IngestOpts(p, src,
		func() (*Additive, error) { return NewAdditive(src.N(), cfg), nil },
		(*Additive).AddBatch, (*Additive).Merge)
	if err != nil {
		return nil, fmt.Errorf("spanner: additive pass: %w", err)
	}
	return main.FinishOpts(p)
}
