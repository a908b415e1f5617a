package dynstream

import (
	"context"
	"testing"

	"dynstream/internal/graph"
)

// These tests exercise the public facade end to end: a downstream user
// should be able to do everything through package dynstream alone.

func TestFacadeSpannerPipeline(t *testing.T) {
	g := graph.ConnectedGNP(50, 0.15, 1)
	st := StreamFromGraph(g, 2)
	res, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 3}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyStretch(g, res.Spanner, 10)
	if rep.Disconnected > 0 || rep.Shortcuts > 0 {
		t.Fatalf("invalid spanner: %+v", rep)
	}
	if rep.MaxStretch > 4 {
		t.Errorf("stretch %v > 4", rep.MaxStretch)
	}
}

func TestFacadeAdditivePipeline(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.2, 4)
	st := StreamWithChurn(g, 200, 5)
	res, err := Build(context.Background(), st, AdditiveTarget{Config: AdditiveConfig{D: 4, Seed: 6}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyAdditive(g, res.Spanner, 12)
	if rep.Disconnected > 0 || rep.Shortcuts > 0 {
		t.Fatalf("invalid additive spanner: %+v", rep)
	}
	if rep.MaxError > 2*g.N()/4 {
		t.Errorf("additive error %d", rep.MaxError)
	}
}

func TestFacadeSparsifierPipeline(t *testing.T) {
	g := graph.Complete(12)
	st := StreamFromGraph(g, 7)
	res, err := Build(context.Background(), st, SparsifierTarget{Config: SparsifierConfig{
		K: 1, Z: 24, Seed: 8,
		Estimate: EstimateConfig{K: 1, J: 3, T: 7, Delta: 0.34, Seed: 9, ExactOracles: true},
	}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	eps, err := VerifySpectral(g, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	if eps >= 1 {
		t.Errorf("facade sparsifier ε = %v", eps)
	}
}

func TestFacadeForestSketch(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.15, 10)
	fs := NewForestSketch(11, g.N(), ForestConfig{})
	st := StreamFromGraph(g, 12)
	if err := st.Replay(func(u Update) error {
		fs.AddUpdate(u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	forest, err := fs.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := newUF(g.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
		uf.union(e.U, e.V)
	}
	for v := 1; v < g.N(); v++ {
		if uf.find(0) != uf.find(v) {
			t.Fatalf("forest does not span: %d separated", v)
		}
	}
}

func TestFacadeExplicitPasses(t *testing.T) {
	// Drive the two passes manually (as a distributed coordinator would).
	g := graph.ConnectedGNP(40, 0.2, 13)
	st := StreamFromGraph(g, 14)
	tp := NewTwoPassSpanner(g.N(), SpannerConfig{K: 2, Seed: 15})
	if err := st.Replay(tp.Pass1Update); err != nil {
		t.Fatal(err)
	}
	if err := tp.EndPass1(); err != nil {
		t.Fatal(err)
	}
	if err := st.Replay(tp.Pass2Update); err != nil {
		t.Fatal(err)
	}
	res, err := tp.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyStretch(g, res.Spanner, 8)
	if rep.Disconnected > 0 || rep.MaxStretch > 4 {
		t.Errorf("explicit-pass spanner: %+v", rep)
	}
}

func TestFacadeWeightedSpanner(t *testing.T) {
	base := graph.ConnectedGNP(30, 0.2, 16)
	g := graph.RandomWeighted(base, 1, 32, 17)
	st := StreamFromGraph(g, 18)
	res, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 19}},
		WithWorkers(1), WithWeightClasses(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.M() == 0 {
		t.Error("empty weighted spanner")
	}
}

func TestFacadeMaterialize(t *testing.T) {
	st := NewMemoryStream(5)
	_ = st.Append(Update{U: 0, V: 1, Delta: 1})
	_ = st.Append(Update{U: 0, V: 1, Delta: -1})
	_ = st.Append(Update{U: 2, V: 3, Delta: 1})
	g, err := Materialize(st)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || !g.HasEdge(2, 3) {
		t.Errorf("materialized %v", g.Edges())
	}
}

// minimal union-find for the forest test (avoids importing internals).
type uf struct{ p []int }

func newUF(n int) *uf {
	u := &uf{p: make([]int, n)}
	for i := range u.p {
		u.p[i] = i
	}
	return u
}

func (u *uf) find(x int) int {
	for u.p[x] != x {
		u.p[x] = u.p[u.p[x]]
		x = u.p[x]
	}
	return x
}

func (u *uf) union(a, b int) { u.p[u.find(a)] = u.find(b) }

func TestFacadeDistanceOracle(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.15, 30)
	st := StreamFromGraph(g, 31)
	res, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 32}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	o := NewDistanceOracle(res, 2)
	d := g.BFS(0)
	for v := 1; v < g.N(); v++ {
		if d[v] <= 0 {
			continue
		}
		est := o.Query(0, v)
		if est < float64(d[v]) || est > 4*float64(d[v]) {
			t.Fatalf("oracle out of band at %d: %v vs %d", v, est, d[v])
		}
	}
}

func TestFacadeMSF(t *testing.T) {
	base := graph.ConnectedGNP(24, 0.2, 33)
	g := graph.RandomWeighted(base, 1, 40, 34)
	m := NewMSF(35, g.N(), 40, 0.5)
	st := StreamFromGraph(g, 36)
	if err := st.Replay(func(u Update) error { m.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	f, err := m.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != g.N()-1 {
		t.Errorf("MSF has %d edges, want %d", len(f), g.N()-1)
	}
	for _, e := range f {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("MSF edge (%d,%d) not in graph", e.U, e.V)
		}
	}
}
