package dynstream

// Cross-module integration tests: whole pipelines driven through the
// public API on adversarial streams, with every output checked against
// exact ground truth. These complement the per-package unit tests by
// exercising the interactions the paper's constructions depend on
// (linearity under deletions, weight classes, shared streams).

import (
	"context"
	"math"
	"testing"

	"dynstream/internal/baseline"
	"dynstream/internal/graph"
)

// TestIntegrationFullCancellation: a stream that inserts and deletes
// every edge must leave every algorithm holding a sketch of the empty
// graph.
func TestIntegrationFullCancellation(t *testing.T) {
	const n = 30
	g := graph.Complete(n)
	st := NewMemoryStream(n)
	for _, e := range g.Edges() {
		_ = st.Append(Update{U: e.U, V: e.V, Delta: 1})
	}
	for _, e := range g.Edges() {
		_ = st.Append(Update{U: e.U, V: e.V, Delta: -1})
	}

	sp, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 1}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Spanner.M() != 0 {
		t.Errorf("spanner of cancelled stream has %d edges", sp.Spanner.M())
	}

	ad, err := Build(context.Background(), st, AdditiveTarget{Config: AdditiveConfig{D: 4, Seed: 2}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if ad.Spanner.M() != 0 {
		t.Errorf("additive spanner of cancelled stream has %d edges", ad.Spanner.M())
	}

	fs := NewForestSketch(3, n, ForestConfig{})
	_ = st.Replay(func(u Update) error { fs.AddUpdate(u); return nil })
	forest, err := fs.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 0 {
		t.Errorf("forest of cancelled stream has %d edges", len(forest))
	}
}

// TestIntegrationSharedStreamConsistency: all algorithms consume the
// same churned stream; every output must be consistent with the same
// final graph.
func TestIntegrationSharedStreamConsistency(t *testing.T) {
	g := graph.ConnectedGNP(48, 0.2, 4)
	st := StreamWithChurn(g, 300, 5)

	sp, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 6}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Build(context.Background(), st, AdditiveTarget{Config: AdditiveConfig{D: 4, Seed: 7}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKConnectivity(8, g.N(), 2)
	_ = st.Replay(func(u Update) error { kc.AddUpdate(u); return nil })
	cert, err := kc.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Graph{
		"two-pass spanner": sp.Spanner,
		"additive spanner": ad.Spanner,
		"k-cert":           cert,
	} {
		if !h.IsSubgraphOf(g) {
			t.Errorf("%s is not a subgraph of the final graph", name)
		}
		if !h.Connected() {
			t.Errorf("%s disconnected a connected graph", name)
		}
	}
}

// TestIntegrationWeightedPipeline: weighted stream through the
// weight-class spanner, verified with Dijkstra stretch.
func TestIntegrationWeightedPipeline(t *testing.T) {
	base := graph.ConnectedGNP(36, 0.2, 9)
	g := graph.RandomWeighted(base, 1, 100, 10)
	st := StreamFromGraph(g, 11)
	const classBase = 2.0
	res, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 12}},
		WithWorkers(1), WithWeightClasses(classBase))
	if err != nil {
		t.Fatal(err)
	}
	bound := classBase * 4 // classBase · 2^k
	for src := 0; src < g.N(); src += 6 {
		dg := g.Dijkstra(src)
		dh := res.Spanner.Dijkstra(src)
		for v := 0; v < g.N(); v++ {
			if v == src {
				continue
			}
			if dh[v] > bound*dg[v]+1e-9 {
				t.Fatalf("weighted stretch %v > %v at (%d,%d)", dh[v]/dg[v], bound, src, v)
			}
			if dh[v] < dg[v]-1e-9 {
				t.Fatalf("shortcut at (%d,%d)", src, v)
			}
		}
	}
}

// TestIntegrationStarvedBudgetStaysValid: failure injection — a
// deliberately tiny sparse-recovery budget forces first-pass decode
// failures; the construction must degrade to more terminal clusters,
// never to an invalid spanner.
func TestIntegrationStarvedBudgetStaysValid(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.25, 13)
	st := StreamFromGraph(g, 14)
	res, err := Build(context.Background(), st,
		SpannerTarget{Config: SpannerConfig{K: 2, Seed: 15, Budget: 2, Levels: 3}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyStretch(g, res.Spanner, 10)
	if rep.Disconnected > 0 || rep.Shortcuts > 0 {
		t.Errorf("starved-budget spanner invalid: %+v", rep)
	}
	if rep.MaxStretch > 4 {
		t.Errorf("starved-budget stretch %v > 4", rep.MaxStretch)
	}
}

// TestIntegrationMultigraphMultiplicity: multigraph multiplicities
// (repeated inserts) flow through every sketch without corruption.
func TestIntegrationMultigraphMultiplicity(t *testing.T) {
	const n = 20
	st := NewMemoryStream(n)
	// A path where every edge has multiplicity 3, then one copy of
	// each is deleted.
	for rep := 0; rep < 3; rep++ {
		for i := 0; i+1 < n; i++ {
			_ = st.Append(Update{U: i, V: i + 1, Delta: 1})
		}
	}
	for i := 0; i+1 < n; i++ {
		_ = st.Append(Update{U: i, V: i + 1, Delta: -1})
	}
	want := graph.Path(n)

	sp, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 16}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Spanner.M() != want.M() {
		t.Errorf("spanner kept %d of %d path edges", sp.Spanner.M(), want.M())
	}

	fs := NewForestSketch(17, n, ForestConfig{})
	_ = st.Replay(func(u Update) error { fs.AddUpdate(u); return nil })
	forest, err := fs.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != n-1 {
		t.Errorf("forest has %d edges, want %d", len(forest), n-1)
	}
}

// TestIntegrationInsertionOnlyBaselineContrast: the insertion-only
// 1-pass greedy baseline matches the sketch spanner on insert-only
// streams but cannot process the deletion workload at all — the gap
// the paper's sketches close.
func TestIntegrationInsertionOnlyBaselineContrast(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.2, 18)
	insertOnly := StreamFromGraph(g, 19)
	withDeletes := StreamWithChurn(g, 100, 20)

	hGreedy, err := baseline.StreamingGreedy(insertOnly, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !hGreedy.Connected() {
		t.Error("greedy baseline broke connectivity")
	}
	if _, err := baseline.StreamingGreedy(withDeletes, 2); err == nil {
		t.Error("insertion-only baseline accepted deletions")
	}
	res, err := Build(context.Background(), withDeletes, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 21}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyStretch(g, res.Spanner, 10)
	if rep.Disconnected > 0 || rep.MaxStretch > 4 {
		t.Errorf("sketch spanner failed on deletion stream: %+v", rep)
	}
}

// TestIntegrationSparsifierCutsVsSpectral: cut error is always a lower
// bound for spectral error (cuts are quadratic forms at binary
// vectors) — check the two verifiers agree on that ordering.
func TestIntegrationSparsifierCutsVsSpectral(t *testing.T) {
	g := graph.Complete(14)
	st := StreamFromGraph(g, 22)
	res, err := Build(context.Background(), st, SparsifierTarget{Config: SparsifierConfig{
		K: 1, Z: 32, Seed: 23,
		Estimate: EstimateConfig{K: 1, J: 3, T: 7, Delta: 0.34, Seed: 24, ExactOracles: true},
	}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	spectral, err := VerifySpectral(g, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	cut := cutEps(g, res.Sparsifier, 200)
	if cut > spectral+1e-9 {
		t.Errorf("cut error %v exceeds spectral error %v — verifier inconsistency", cut, spectral)
	}
}

func cutEps(g, h *Graph, cuts int) float64 {
	worst := 0.0
	rng := uint64(12345)
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 31)
	}
	for c := 0; c < cuts; c++ {
		side := make([]bool, g.N())
		for v := range side {
			side[v] = next()&1 == 1
		}
		wg := g.CutWeight(side)
		if wg == 0 {
			continue
		}
		if d := math.Abs(h.CutWeight(side)/wg - 1); d > worst {
			worst = d
		}
	}
	return worst
}

// TestIntegrationStreamOrderInvariance: linear sketches are oblivious
// to update order — any permutation of the same multiset of updates
// yields the identical spanner.
func TestIntegrationStreamOrderInvariance(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 25)
	a := StreamFromGraph(g, 1)
	b := StreamFromGraph(g, 2) // different order, same multiset
	resA, err := Build(context.Background(), a, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 26}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Build(context.Background(), b, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 26}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if resA.Spanner.M() != resB.Spanner.M() ||
		!resA.Spanner.IsSubgraphOf(resB.Spanner) {
		t.Error("spanner depends on stream order — sketches are not linear")
	}
}
