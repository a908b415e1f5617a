package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// exactMSFWeight computes the exact MSF weight by Kruskal.
func exactMSFWeight(g *graph.Graph) float64 {
	edges := g.Edges()
	// Insertion sort by weight (test helper; sizes are small).
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edges[j].W < edges[j-1].W; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	uf := graph.NewUnionFind(g.N())
	total := 0.0
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			total += e.W
		}
	}
	return total
}

func buildMSF(t *testing.T, g *graph.Graph, wmax, gamma float64, seed uint64) []graph.Edge {
	t.Helper()
	m := NewMSF(seed, g.N(), wmax, gamma)
	if err := stream.FromGraph(g, seed+1).Replay(func(u stream.Update) error {
		m.AddUpdate(u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f, err := m.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMSFSpansAndUsesRealEdges(t *testing.T) {
	base := graph.ConnectedGNP(30, 0.15, 1)
	g := graph.RandomWeighted(base, 1, 50, 2)
	f := buildMSF(t, g, 50, 0.5, 3)
	uf := graph.NewUnionFind(g.N())
	for _, e := range f {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("MSF edge (%d,%d) not in graph", e.U, e.V)
		}
		if !uf.Union(e.U, e.V) {
			t.Fatalf("MSF has a cycle at (%d,%d)", e.U, e.V)
		}
	}
	if uf.Sets() != 1 {
		t.Errorf("MSF leaves %d components", uf.Sets())
	}
	if len(f) != g.N()-1 {
		t.Errorf("MSF has %d edges, want %d", len(f), g.N()-1)
	}
}

func TestMSFWeightApproximation(t *testing.T) {
	// The sketch-MSF's true weight (actual edge weights of the chosen
	// edges) must be within (1+gamma) of the exact MSF weight — class
	// rounding is the only error source.
	base := graph.ConnectedGNP(24, 0.25, 4)
	g := graph.RandomWeighted(base, 1, 100, 5)
	const gamma = 0.5
	f := buildMSF(t, g, 100, gamma, 6)
	got := 0.0
	for _, e := range f {
		w, _ := g.Weight(e.U, e.V)
		got += w
	}
	exact := exactMSFWeight(g)
	if got < exact-1e-9 {
		t.Fatalf("MSF weight %v below exact optimum %v — impossible", got, exact)
	}
	if got > (1+gamma)*exact+1e-9 {
		t.Errorf("MSF weight %v exceeds (1+γ)·opt = %v", got, (1+gamma)*exact)
	}
}

func TestMSFPrefersLightEdges(t *testing.T) {
	// Two vertices joined by a light path and a heavy direct edge: the
	// MSF must use the light path and skip the heavy edge.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 100)
	f := buildMSF(t, g, 100, 0.5, 7)
	for _, e := range f {
		if e.U == 0 && e.V == 3 {
			t.Error("MSF used the heavy edge despite a light path")
		}
	}
	if len(f) != 3 {
		t.Errorf("forest size %d, want 3", len(f))
	}
}

func TestMSFUnderChurn(t *testing.T) {
	base := graph.ConnectedGNP(20, 0.2, 8)
	g := graph.RandomWeighted(base, 1, 30, 9)
	m := NewMSF(10, g.N(), 30, 1)
	st := stream.WithChurn(g, 150, 11)
	if err := st.Replay(func(u stream.Update) error { m.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	f, err := m.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("churn leaked edge (%d,%d) into MSF", e.U, e.V)
		}
	}
	uf := graph.NewUnionFind(g.N())
	for _, e := range f {
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Error("MSF under churn lost connectivity")
	}
}

func TestMSFDisconnected(t *testing.T) {
	g := graph.New(10)
	g.AddEdge(0, 1, 2)
	g.AddEdge(2, 3, 5)
	m := NewMSF(12, g.N(), 10, 1)
	_ = stream.FromGraph(g, 13).Replay(func(u stream.Update) error {
		m.AddUpdate(u)
		return nil
	})
	f, err := m.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 {
		t.Errorf("forest has %d edges, want 2", len(f))
	}
}

func TestMSFSpaceWords(t *testing.T) {
	m := NewMSF(14, 16, 100, 0.5)
	if m.SpaceWords() <= 0 {
		t.Error("space accounting")
	}
}
