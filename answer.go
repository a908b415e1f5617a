package dynstream

import (
	"context"
	"fmt"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// Answer is the decoded result of one query, the same value type for
// all seven targets: Decode renders a Build result into one, and
// Handle.Query decodes live state into one. An Answer never aliases
// sketch state, so it stays valid however the handle changes after the
// query returned. Every frontend (the CLI, its -repl loop, the daemon)
// prints or serializes Answers and nothing else.
type Answer struct {
	// Graph is the result edge set — spanner, sparsifier, spanning
	// forest, connectivity certificate or approximate MSF — with its own
	// deterministic edge order (Graph.Edges). Nil for
	// BipartitenessTarget, whose answer is a verdict.
	Graph *Graph
	// Components is the number of connected components of the sketched
	// graph (ForestTarget only; 0 for the other targets).
	Components int
	// Bipartite is BipartitenessTarget's verdict.
	Bipartite bool
	// SpaceWords is the sketch footprint in 64-bit words.
	SpaceWords int
	// Applied is the number of updates a live Handle had folded in when
	// it answered (read under the same lock hold as the decode); 0 for
	// Decode.
	Applied int64
	// Summary is a one-line description, e.g. "spanning forest: 12
	// edges, 3 components".
	Summary string
}

// Decode renders a Build result as an Answer: the sketch targets
// (forest, k-connectivity, bipartiteness, MSF) run their decode here,
// the spanner and sparsifier targets only repackage their result. It
// resolves its decode policy from the options Build takes — the decode
// worker count (WithDecodeWorkers, else WithWorkers, else serial) and
// the tracer (WithTracer) — so a caller that passes its Build options
// again gets the decode phases (agm/roundNN spans) in the same trace.
// WithTraceFile rewrites the file only together with WithTracer: that
// shared tracer still holds the Build's spans, so the file then holds
// ingest and decode. Given WithTraceFile alone, Decode leaves the file
// Build wrote untouched. The Answer is bit-identical at every decode
// worker count.
func Decode[R any](ctx context.Context, target Target[R], res R, opts ...Option) (*Answer, error) {
	if target == nil {
		return nil, fmt.Errorf("%w: nil target", ErrBadConfig)
	}
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.tracer == nil {
		o.traceFile = "" // a private tracer would hold the decode spans only
	}
	tr, traceDone := o.effectiveTracer()
	defer traceDone()
	p := parallel.NewPolicy(ctx, o.resolveDecodeWorkers(nil), o.batch, nil).WithTracer(tr)
	a, err := target.answer(res, p)
	if err != nil {
		return nil, err
	}
	if werr := o.writeTraceFile(tr); werr != nil {
		return a, werr
	}
	return a, nil
}

// ---- per-target renderers: the only code that turns a target's result
// or sketch into an Answer ----

func (t ForestTarget) answer(sk *ForestSketch, p *parallel.Policy) (*Answer, error) {
	forest, err := sk.SpanningForestOpts(nil, p)
	if err != nil {
		return nil, err
	}
	g := graph.New(sk.N())
	for _, e := range forest {
		g.AddUnitEdge(e.U, e.V)
	}
	comps := sk.N() - len(forest)
	return &Answer{
		Graph: g, Components: comps, SpaceWords: sk.SpaceWords(),
		Summary: fmt.Sprintf("spanning forest: %d edges, %d components", len(forest), comps),
	}, nil
}

func (t KConnectivityTarget) answer(kc *KConnectivity, p *parallel.Policy) (*Answer, error) {
	cert, err := kc.CertificateGraphOpts(p)
	if err != nil {
		return nil, err
	}
	return &Answer{
		Graph: cert, SpaceWords: kc.SpaceWords(),
		Summary: fmt.Sprintf("%d-connectivity certificate: %d edges", t.K, cert.M()),
	}, nil
}

func (t BipartitenessTarget) answer(b *Bipartiteness, p *parallel.Policy) (*Answer, error) {
	bip, err := b.IsBipartiteOpts(p)
	if err != nil {
		return nil, err
	}
	return &Answer{Bipartite: bip, SpaceWords: b.SpaceWords(), Summary: fmt.Sprintf("bipartite: %v", bip)}, nil
}

func (t MSFTarget) answer(m *MSF, p *parallel.Policy) (*Answer, error) {
	forest, err := m.ForestOpts(p)
	if err != nil {
		return nil, err
	}
	g := graph.New(m.N())
	for _, e := range forest {
		g.AddEdge(e.U, e.V, e.W)
	}
	return &Answer{
		Graph: g, SpaceWords: m.SpaceWords(),
		Summary: fmt.Sprintf("approximate MSF: %d edges", len(forest)),
	}, nil
}

func (t SpannerTarget) answer(res *SpannerResult, _ *parallel.Policy) (*Answer, error) {
	return &Answer{
		Graph: res.Spanner, SpaceWords: res.SpaceWords,
		Summary: fmt.Sprintf("2^%d-spanner: %d edges", t.Config.K, res.Spanner.M()),
	}, nil
}

func (t AdditiveTarget) answer(res *AdditiveResult, _ *parallel.Policy) (*Answer, error) {
	return &Answer{
		Graph: res.Spanner, SpaceWords: res.SpaceWords,
		Summary: fmt.Sprintf("n/%d-additive spanner: %d edges", t.Config.D, res.Spanner.M()),
	}, nil
}

func (t SparsifierTarget) answer(res *SparsifierResult, _ *parallel.Policy) (*Answer, error) {
	return &Answer{
		Graph: res.Sparsifier, SpaceWords: res.SpaceWords,
		Summary: fmt.Sprintf("sparsifier: %d edges from %d samples", res.Sparsifier.M(), res.Samples),
	}, nil
}
