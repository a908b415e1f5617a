package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

func streamInto(t *testing.T, g *graph.Graph, add func(stream.Update)) {
	t.Helper()
	if err := stream.FromGraph(g, 99).Replay(func(u stream.Update) error {
		add(u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestKConnectivityForestsAreEdgeDisjoint(t *testing.T) {
	g := graph.Complete(12)
	kc := NewKConnectivity(1, g.N(), 3)
	streamInto(t, g, kc.AddUpdate)
	forests, err := kc.CertificateOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(forests) != 3 {
		t.Fatalf("got %d forests", len(forests))
	}
	seen := map[[2]int]bool{}
	for fi, f := range forests {
		uf := graph.NewUnionFind(g.N())
		for _, e := range f {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("forest %d contains phantom edge (%d,%d)", fi, e.U, e.V)
			}
			key := [2]int{e.U, e.V}
			if seen[key] {
				t.Fatalf("edge (%d,%d) appears in two forests", e.U, e.V)
			}
			seen[key] = true
			if !uf.Union(e.U, e.V) {
				t.Fatalf("forest %d has a cycle", fi)
			}
		}
	}
	// K12 is 11-connected, so all three forests must be spanning trees.
	for fi, f := range forests {
		if len(f) != g.N()-1 {
			t.Errorf("forest %d has %d edges, want %d", fi, len(f), g.N()-1)
		}
	}
}

func TestKConnectivityCertificatePreservesSmallCuts(t *testing.T) {
	// Two K6's joined by exactly 2 edges: the 2-cut must survive in a
	// k=3 certificate with its exact value.
	g := graph.New(12)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddUnitEdge(u, v)
			g.AddUnitEdge(u+6, v+6)
		}
	}
	g.AddUnitEdge(0, 6)
	g.AddUnitEdge(5, 11)
	kc := NewKConnectivity(2, g.N(), 3)
	streamInto(t, g, kc.AddUpdate)
	cert, err := kc.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	side := make([]bool, 12)
	for v := 0; v < 6; v++ {
		side[v] = true
	}
	if got := cert.CutWeight(side); got != 2 {
		t.Errorf("certificate cut = %v, want 2 (the full small cut)", got)
	}
	if cert.M() >= g.M() {
		t.Errorf("certificate kept %d of %d edges — no compression", cert.M(), g.M())
	}
}

func TestKConnectivityUnderDeletions(t *testing.T) {
	g := graph.ConnectedGNP(16, 0.4, 3)
	st := stream.WithChurn(g, 200, 4)
	kc := NewKConnectivity(5, g.N(), 2)
	if err := st.Replay(func(u stream.Update) error { kc.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	cert, err := kc.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.IsSubgraphOf(g) {
		t.Error("certificate leaked deleted edges")
	}
	if !cert.Connected() {
		t.Error("certificate of a connected graph must stay connected")
	}
}

func TestBipartiteDetectsBipartite(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"even cycle", graph.Cycle(10), true},
		{"odd cycle", graph.Cycle(9), false},
		{"path", graph.Path(12), true},
		{"star", graph.Star(8), true},
		{"triangle in big graph", triangleGraph(), false},
		{"grid", graph.Grid(4, 5), true},
		{"complete K5", graph.Complete(5), false},
	}
	for _, c := range cases {
		b := NewBipartiteness(7, c.g.N())
		streamInto(t, c.g, b.AddUpdate)
		got, err := b.IsBipartiteOpts(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: IsBipartite = %v, want %v", c.name, got, c.want)
		}
	}
}

func triangleGraph() *graph.Graph {
	g := graph.Path(10)
	g.AddUnitEdge(0, 2) // creates triangle 0-1-2
	return g
}

func TestBipartiteAfterDeletionFlip(t *testing.T) {
	// Odd cycle is non-bipartite; deleting one edge makes it a path —
	// bipartite. The sketch must track the flip through the deletion.
	n := 9
	b := NewBipartiteness(8, n)
	for i := 0; i < n; i++ {
		b.AddUpdate(stream.Update{U: i, V: (i + 1) % n, Delta: 1})
	}
	b2 := NewBipartiteness(8, n)
	for i := 0; i < n; i++ {
		b2.AddUpdate(stream.Update{U: i, V: (i + 1) % n, Delta: 1})
	}
	b2.AddUpdate(stream.Update{U: 0, V: 1, Delta: -1})
	got1, err := b.IsBipartiteOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := b2.IsBipartiteOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got1 || !got2 {
		t.Errorf("odd cycle: %v (want false); after deletion: %v (want true)", got1, got2)
	}
}

func TestBipartiteDisconnectedMixed(t *testing.T) {
	// One bipartite component + one odd cycle: not bipartite.
	g := graph.New(14)
	for i := 0; i < 5; i++ {
		g.AddUnitEdge(i, i+1)
	}
	for i := 7; i < 13; i++ {
		g.AddUnitEdge(i, i+1)
	}
	g.AddUnitEdge(13, 7) // 7-cycle (odd)
	b := NewBipartiteness(9, g.N())
	streamInto(t, g, b.AddUpdate)
	got, err := b.IsBipartiteOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("graph with an odd cycle reported bipartite")
	}
}

func TestApplicationsSpaceWords(t *testing.T) {
	kc := NewKConnectivity(10, 20, 3)
	if kc.SpaceWords() <= 0 {
		t.Error("kconnectivity space")
	}
	b := NewBipartiteness(11, 20)
	if b.SpaceWords() <= 0 {
		t.Error("bipartiteness space")
	}
}
