package sparsify

import (
	"fmt"
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// This file makes the sparsification pipeline concurrent. Two layers:
//
//   - Grid is the mergeable sketch state of Algorithm 4's J×T oracle
//     grid: every cell is a two-pass spanner state over a nested
//     subsampled edge set, and the whole grid is a linear function of
//     the update stream — so per-shard grids merge into exactly the
//     single-threaded grid (the "oracle-grid state" merge).
//   - SparsifyOpts / NewEstimatorOpts drive the grid's two
//     passes over round-robin stream shards with a worker per shard,
//     and fan the Z×H augmented-spanner builds of Algorithms 5–6 out
//     over a bounded worker pool. Every decode happens on the merged
//     state, so the output is identical to the serial pipeline.

// Grid is the linear sketch state underlying an Estimator: cell
// (t, j) holds the two-pass spanner state of oracle j at subsampling
// rate 2^{-(t-1)}. It supports the same pass protocol as
// spanner.TwoPass, plus cell-wise merging, and finishes into an
// Estimator identical to NewEstimator's.
type Grid struct {
	cfg     EstimateConfig
	n       int
	colHash []*hashing.Poly      // per column j: the E^j_t level hash
	cells   [][]*spanner.TwoPass // cells[t-1][j]
	phase   int
}

// NewGrid creates the oracle-grid sketch state for a graph on n
// vertices. Grids built from the same (n, cfg) are mergeable.
// ExactOracles is not a sketch and has no grid state; use
// NewEstimatorOpts, which task-parallelizes that ablation instead.
func NewGrid(n int, cfg EstimateConfig) (*Grid, error) {
	cfg = cfg.withDefaults(n)
	if cfg.ExactOracles {
		return nil, fmt.Errorf("sparsify: exact oracles have no mergeable grid state")
	}
	g := &Grid{cfg: cfg, n: n}
	g.colHash = make([]*hashing.Poly, cfg.J)
	for j := 0; j < cfg.J; j++ {
		// Must match stream.SampledSubstream(st, Mix(seed, 0xe5, j), t-1)
		// so that cell (t, j) sees exactly the substream E^j_t the serial
		// estimator feeds oracle (t, j).
		g.colHash[j] = hashing.NewPoly(
			hashing.Mix(hashing.Mix(cfg.Seed, 0xe5, uint64(j)), 0xe1), 8)
	}
	g.cells = make([][]*spanner.TwoPass, cfg.T)
	for t := 1; t <= cfg.T; t++ {
		row := make([]*spanner.TwoPass, cfg.J)
		for j := 0; j < cfg.J; j++ {
			row[j] = spanner.NewTwoPass(n, spanner.Config{
				K: cfg.K, Seed: hashing.Mix(cfg.Seed, 0x0a, uint64(t), uint64(j))})
		}
		g.cells[t-1] = row
	}
	return g, nil
}

// N returns the vertex count.
func (g *Grid) N() int { return g.n }

// Phase reports the build phase: 0 while pass 1 is open, 1 after
// EndPass1 (pass 2 open), 2 after Finish. Remote workers use it to
// route ingest on a grid decoded from the wire.
func (g *Grid) Phase() int { return g.phase }

// forEachCell visits the cells an update reaches: cell (t, j) sketches
// E^j_t, the edges whose column-j level is at least t−1.
func (g *Grid) forEachCell(u stream.Update, visit func(cell *spanner.TwoPass) error) error {
	key := stream.PairKey(u.U, u.V, g.n)
	for j := 0; j < g.cfg.J; j++ {
		tMax := g.colHash[j].Level(key) + 1
		if tMax > g.cfg.T {
			tMax = g.cfg.T
		}
		for t := 1; t <= tMax; t++ {
			if err := visit(g.cells[t-1][j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Pass1Update ingests one update into every cell whose substream
// contains the edge (first spanner pass).
func (g *Grid) Pass1Update(u stream.Update) error {
	if g.phase != 0 {
		return fmt.Errorf("sparsify: grid Pass1Update in phase %d", g.phase)
	}
	return g.forEachCell(u, func(c *spanner.TwoPass) error { return c.Pass1Update(u) })
}

// Pass1AddBatch ingests a batch of first-pass updates; bit-identical
// to calling Pass1Update per element.
func (g *Grid) Pass1AddBatch(batch []stream.Update) error {
	for _, u := range batch {
		if err := g.Pass1Update(u); err != nil {
			return err
		}
	}
	return nil
}

// MergePass1 adds another grid's first-pass state, cell-wise.
func (g *Grid) MergePass1(o *Grid) error {
	if err := g.compatible(o); err != nil {
		return err
	}
	for t := range g.cells {
		for j := range g.cells[t] {
			if err := g.cells[t][j].MergePass1(o.cells[t][j]); err != nil {
				return fmt.Errorf("sparsify: grid merge cell (t=%d, j=%d): %w", t+1, j, err)
			}
		}
	}
	return nil
}

// EndPass1 runs the offline cluster construction in every cell.
func (g *Grid) EndPass1() error {
	return g.EndPass1Opts(parallel.Default())
}

// EndPass1Opts fans the per-cell cluster constructions — each cell is
// an independent two-pass spanner state — across the policy's decode
// workers. Cells are addressed by (t, j) index, so the grid that
// emerges is identical to the serial cell-by-cell construction; each
// cell's own construction runs serially (the cell fan-out already
// saturates the pool).
func (g *Grid) EndPass1Opts(p *parallel.Policy) error {
	if g.phase != 0 {
		return fmt.Errorf("sparsify: grid EndPass1 in phase %d", g.phase)
	}
	sp := p.Tracer().Span("sparsify/grid/endpass1")
	J := g.cfg.J
	err := parallel.ForEachOpts(p.DecodePolicy(), len(g.cells)*J, func(i int) error {
		t, j := i/J, i%J
		if err := g.cells[t][j].EndPass1(); err != nil {
			return fmt.Errorf("sparsify: grid cell (t=%d, j=%d): %w", t+1, j, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.phase = 1
	sp.End(obs.A("cells", int64(len(g.cells)*J)))
	return nil
}

// ForkPass2 returns a second-pass worker grid sharing this grid's
// cluster structures, with freshly zeroed tables (see
// spanner.TwoPass.ForkPass2).
func (g *Grid) ForkPass2() (*Grid, error) {
	if g.phase != 1 {
		return nil, fmt.Errorf("sparsify: grid ForkPass2 in phase %d", g.phase)
	}
	w := &Grid{cfg: g.cfg, n: g.n, colHash: g.colHash, phase: 1}
	w.cells = make([][]*spanner.TwoPass, len(g.cells))
	for t := range g.cells {
		w.cells[t] = make([]*spanner.TwoPass, len(g.cells[t]))
		for j := range g.cells[t] {
			f, err := g.cells[t][j].ForkPass2()
			if err != nil {
				return nil, err
			}
			w.cells[t][j] = f
		}
	}
	return w, nil
}

// Pass2Update ingests one update into every cell whose substream
// contains the edge (second spanner pass).
func (g *Grid) Pass2Update(u stream.Update) error {
	if g.phase != 1 {
		return fmt.Errorf("sparsify: grid Pass2Update in phase %d", g.phase)
	}
	return g.forEachCell(u, func(c *spanner.TwoPass) error { return c.Pass2Update(u) })
}

// Pass2AddBatch ingests a batch of second-pass updates; bit-identical
// to calling Pass2Update per element.
func (g *Grid) Pass2AddBatch(batch []stream.Update) error {
	for _, u := range batch {
		if err := g.Pass2Update(u); err != nil {
			return err
		}
	}
	return nil
}

// MergePass2 adds another grid's second-pass table state, cell-wise.
func (g *Grid) MergePass2(o *Grid) error {
	if err := g.compatible(o); err != nil {
		return err
	}
	for t := range g.cells {
		for j := range g.cells[t] {
			if err := g.cells[t][j].MergePass2(o.cells[t][j]); err != nil {
				return fmt.Errorf("sparsify: grid merge cell (t=%d, j=%d): %w", t+1, j, err)
			}
		}
	}
	return nil
}

func (g *Grid) compatible(o *Grid) error {
	if g.n != o.n || g.cfg != o.cfg {
		return fmt.Errorf("sparsify: merging incompatible grids (n %d/%d)", g.n, o.n)
	}
	return nil
}

// Finish decodes every cell into its distance oracle and assembles the
// Estimator — identical to NewEstimator over the same whole stream.
func (g *Grid) Finish() (*Estimator, error) {
	return g.FinishOpts(parallel.Default())
}

// FinishOpts fans the per-cell spanner extraction (table peeling and
// neighborhood recovery of every cell's Finish) across the policy's
// decode workers, assembling the oracle grid by (t, j) index — the
// Estimator is identical to Finish's.
func (g *Grid) FinishOpts(p *parallel.Policy) (*Estimator, error) {
	if g.phase != 1 {
		return nil, fmt.Errorf("sparsify: grid Finish in phase %d", g.phase)
	}
	p = p.DecodePolicy()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}
	g.phase = 2
	sp := p.Tracer().Span("sparsify/grid/extract")
	e := &Estimator{cfg: g.cfg}
	e.threshold = g.cfg.Threshold
	if e.threshold == 0 {
		e.threshold = math.Pow(2, float64(g.cfg.K))
	}
	alpha := math.Pow(2, float64(g.cfg.K))
	J := g.cfg.J
	oracles, err := parallel.MapOpts(p, len(g.cells)*J, func(i int) (Oracle, error) {
		t, j := i/J, i%J
		res, err := g.cells[t][j].Finish()
		if err != nil {
			return nil, fmt.Errorf("sparsify: grid finish cell (t=%d, j=%d): %w", t+1, j, err)
		}
		return &spannerOracle{
			h: res.Spanner, alpha: alpha, space: res.SpaceWords, memo: map[int][]int{},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	e.oracles = make([][]Oracle, g.cfg.T)
	for t := range g.cells {
		e.oracles[t] = oracles[t*J : (t+1)*J]
		for _, o := range e.oracles[t] {
			e.space += o.SpaceWords()
		}
	}
	sp.End(obs.A("cells", int64(len(g.cells)*J)))
	return e, nil
}

// NewEstimatorOpts is the policy-driven estimator build: the oracle
// grid's two passes run under p's context, workers, batch size, and
// progress sink, producing an Estimator identical to NewEstimator's
// for any policy. The source must be replayable. The ExactOracles
// ablation (which materializes substreams rather than sketching them)
// is built cell-by-cell on the policy's worker pool instead.
func NewEstimatorOpts(src stream.Source, cfg EstimateConfig, p *parallel.Policy) (*Estimator, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: estimator: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	if cfg.ExactOracles {
		return newExactEstimatorOpts(src, cfg, p)
	}
	// At one worker the ingest dispatcher degenerates to a serial replay
	// of a single grid — one code path (and one set of trace spans) for
	// all widths.
	main, err := parallel.IngestOpts(p, src,
		func() (*Grid, error) { return NewGrid(src.N(), cfg) },
		(*Grid).Pass1AddBatch, (*Grid).MergePass1)
	if err != nil {
		return nil, fmt.Errorf("sparsify: estimator pass 1: %w", err)
	}
	if err := main.EndPass1Opts(p); err != nil {
		return nil, err
	}
	tables, err := parallel.IngestOpts(p, src,
		main.ForkPass2, (*Grid).Pass2AddBatch, (*Grid).MergePass2)
	if err != nil {
		return nil, fmt.Errorf("sparsify: estimator pass 2: %w", err)
	}
	if err := main.MergePass2(tables); err != nil {
		return nil, err
	}
	return main.FinishOpts(p)
}

// newExactEstimatorOpts builds the A3 ablation grid (materialized
// exact oracles) cell-by-cell on the policy's worker pool. Each cell
// replays the source, so a single-cursor source degrades the pool to
// one worker.
func newExactEstimatorOpts(st stream.Source, cfg EstimateConfig, p *parallel.Policy) (*Estimator, error) {
	if !stream.ConcurrentReplayable(st) {
		p = p.WithWorkers(1)
	}
	e := &Estimator{cfg: cfg}
	e.threshold = cfg.Threshold
	if e.threshold == 0 {
		e.threshold = math.Pow(2, float64(cfg.K))
	}
	e.oracles = make([][]Oracle, cfg.T)
	for t := range e.oracles {
		e.oracles[t] = make([]Oracle, cfg.J)
	}
	err := parallel.ForEachOpts(p, cfg.T*cfg.J, func(i int) error {
		t, j := i/cfg.J+1, i%cfg.J
		sub := stream.SampledSubstream(st, hashing.Mix(cfg.Seed, 0xe5, uint64(j)), t-1)
		o, err := NewExactOracle(sub)
		if err != nil {
			return fmt.Errorf("sparsify: estimator oracle (t=%d, j=%d): %w", t, j, err)
		}
		e.oracles[t-1][j] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	for t := range e.oracles {
		for j := range e.oracles[t] {
			e.space += e.oracles[t][j].SpaceWords()
		}
	}
	return e, nil
}

// SparsifyOpts is the policy-driven sparsifier build: the oracle grid
// runs its two passes under p, and the Z×H augmented-spanner builds of
// Algorithms 5–6 fan out over p's worker pool (each inner build runs
// serially under the same context, so cancellation is observed at
// batch granularity everywhere). All filtering and averaging happens
// on the merged states in the serial order, so the output sparsifier
// is identical to Sparsify's for the same configuration under any
// policy.
func SparsifyOpts(src stream.Source, cfg Config, p *parallel.Policy) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	est, err := NewEstimatorOpts(src, cfg.Estimate, p)
	if err != nil {
		return nil, err
	}

	// Fan the Z×H augmented-spanner builds out over the pool. Each
	// build is self-contained (its own sketch state over a filtered
	// replay of src), so tasks share nothing but the read-only stream —
	// which must therefore support concurrent replay; a single-cursor
	// source (file-backed ReaderSource) degrades to a sequential loop.
	// Substream and spanner configuration come from the same helpers
	// SampleOnce uses, so the serial and parallel samples cannot drift.
	// While the fan-out is actually parallel the inner builds run fully
	// serial — ingest and decode — since the task fan already saturates
	// the pool; a sequential fan (single-cursor source, or one worker)
	// keeps the policy's decode parallelism inside each build instead.
	inner := p.WithWorkers(1)
	fan := p
	if !stream.ConcurrentReplayable(src) {
		fan = inner
	}
	if fan.Workers() > 1 {
		inner = inner.WithDecode(1)
	}
	aug := make([][]*spanner.Result, cfg.Z)
	for s := range aug {
		aug[s] = make([]*spanner.Result, cfg.H)
	}
	err = parallel.ForEachOpts(fan, cfg.Z*cfg.H, func(i int) error {
		s, j := i/cfg.H, i%cfg.H+1
		res, err := spanner.BuildTwoPassOpts(sampleSubstream(src, cfg, s, j), sampleSpannerConfig(cfg, s, j), inner)
		if err != nil {
			return fmt.Errorf("sparsify: sample rep=%d j=%d: %w", s, j, err)
		}
		aug[s][j-1] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Filter against the robust-connectivity estimates and average, in
	// exactly the serial iteration order (QExp memoizes BFS trees, so
	// this stays single-threaded).
	space := est.SpaceWords()
	samples := make([]*graph.Graph, 0, cfg.Z)
	for s := 0; s < cfg.Z; s++ {
		x, w := assembleSample(src.N(), est, aug[s])
		space += w
		samples = append(samples, x)
	}
	return &Result{
		Sparsifier: averageSamples(src.N(), cfg.Z, samples),
		SpaceWords: space,
		Samples:    cfg.Z,
	}, nil
}

// SparsifyWith is the sparsification pipeline with injected pass
// engines: buildEstimator constructs the robust-connectivity estimator
// (the oracle grid's two passes), and buildSpanner constructs one
// augmented spanner over a subsampled substream. The substream/config
// derivations, the filtering against the estimates, and the averaging
// are shared with the serial pipeline, so any engine that ingests the
// same updates into the same-seeded states — a policy worker pool or
// dynnet's remote workers — produces an identical sparsifier. The Z×H
// sample builds run sequentially; concurrent fan-out stays in
// SparsifyOpts.
func SparsifyWith(src stream.Source, cfg Config,
	buildEstimator func(cfg EstimateConfig) (*Estimator, error),
	buildSpanner func(sub stream.Source, scfg spanner.Config) (*spanner.Result, error),
) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	est, err := buildEstimator(cfg.Estimate)
	if err != nil {
		return nil, err
	}
	space := est.SpaceWords()
	samples := make([]*graph.Graph, 0, cfg.Z)
	for s := 0; s < cfg.Z; s++ {
		results := make([]*spanner.Result, cfg.H)
		for j := 1; j <= cfg.H; j++ {
			res, err := buildSpanner(sampleSubstream(src, cfg, s, j), sampleSpannerConfig(cfg, s, j))
			if err != nil {
				return nil, fmt.Errorf("sparsify: sample rep=%d j=%d: %w", s, j, err)
			}
			results[j-1] = res
		}
		x, w := assembleSample(src.N(), est, results)
		space += w
		samples = append(samples, x)
	}
	return &Result{
		Sparsifier: averageSamples(src.N(), cfg.Z, samples),
		SpaceWords: space,
		Samples:    cfg.Z,
	}, nil
}

// SparsifyWeightedOpts is the policy-driven weight-class sparsifier
// (see SparsifyWeighted): each class is sparsified with SparsifyOpts
// under the same policy and rescaled by its class upper bound.
func SparsifyWeightedOpts(src stream.Source, cfg Config, classBase float64, p *parallel.Policy) (*Result, error) {
	return SparsifyWeightedWith(src, cfg, classBase, func(sub stream.Source, ccfg Config) (*Result, error) {
		return SparsifyOpts(sub, ccfg, p)
	})
}

// SparsifyWeightedWith is the weight-class sparsifier with an injected
// per-class builder (see BuildTwoPassWeightedWith for the pattern).
func SparsifyWeightedWith(src stream.Source, cfg Config, classBase float64, build func(stream.Source, Config) (*Result, error)) (*Result, error) {
	if classBase <= 1 {
		return nil, fmt.Errorf("sparsify: classBase must be > 1, got %v", classBase)
	}
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	classes, sub := stream.WeightClasses(src, classBase)
	out := graph.New(src.N())
	total := &Result{Sparsifier: out}
	for _, c := range classes {
		ccfg := cfg
		ccfg.Seed = hashing.Mix(cfg.Seed, 0x3d, uint64(c))
		ccfg.Estimate.Seed = hashing.Mix(cfg.Seed, 0x3e, uint64(c))
		res, err := build(sub[c], ccfg)
		if err != nil {
			return nil, fmt.Errorf("sparsify: weight class %d: %w", c, err)
		}
		scale := math.Pow(classBase, float64(c+1))
		for _, e := range res.Sparsifier.Edges() {
			if w, ok := out.Weight(e.U, e.V); ok {
				out.AddEdge(e.U, e.V, w+scale*e.W)
			} else {
				out.AddEdge(e.U, e.V, scale*e.W)
			}
		}
		total.SpaceWords += res.SpaceWords
		total.Samples += res.Samples
	}
	return total, nil
}
