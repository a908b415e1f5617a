package spanner

import (
	"math"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

func buildFromGraph(t *testing.T, g *graph.Graph, cfg Config) *Result {
	t.Helper()
	st := stream.FromGraph(g, cfg.Seed+1000)
	res, err := BuildTwoPass(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoPassSubgraph(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.15, 1)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 2})
	if !res.Spanner.IsSubgraphOf(g) {
		t.Error("spanner contains non-graph edges")
	}
}

func TestTwoPassStretchK2(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.15, 3)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 4})
	if rep := verify.Stretch(g, res.Spanner, 20); rep.Disconnected != 0 || rep.Shortcuts != 0 || rep.MaxStretch > 4 {
		t.Errorf("stretch %v (report %+v) exceeds 2^2 = 4", rep.MaxStretch, rep)
	}
}

func TestTwoPassStretchK3(t *testing.T) {
	g := graph.ConnectedGNP(80, 0.12, 5)
	res := buildFromGraph(t, g, Config{K: 3, Seed: 6})
	if rep := verify.Stretch(g, res.Spanner, 16); rep.Disconnected != 0 || rep.Shortcuts != 0 || rep.MaxStretch > 8 {
		t.Errorf("stretch %v (report %+v) exceeds 2^3 = 8", rep.MaxStretch, rep)
	}
}

func TestTwoPassK1IsTwoSpanner(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.2, 7)
	res := buildFromGraph(t, g, Config{K: 1, Seed: 8})
	if rep := verify.Stretch(g, res.Spanner, 40); rep.Disconnected != 0 || rep.Shortcuts != 0 || rep.MaxStretch > 2 {
		t.Errorf("stretch %v (report %+v) exceeds 2^1 = 2", rep.MaxStretch, rep)
	}
}

func TestTwoPassPathPreserved(t *testing.T) {
	// On a path every edge is a bridge; the spanner must contain all of
	// them exactly (any missing edge would disconnect the graph).
	g := graph.Path(50)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 9})
	if res.Spanner.M() != g.M() {
		t.Errorf("path spanner has %d edges, want %d", res.Spanner.M(), g.M())
	}
}

func TestTwoPassGrid(t *testing.T) {
	g := graph.Grid(8, 8)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 10})
	if rep := verify.Stretch(g, res.Spanner, 16); rep.Disconnected != 0 || rep.Shortcuts != 0 || rep.MaxStretch > 4 {
		t.Errorf("grid stretch %v (report %+v) exceeds 4", rep.MaxStretch, rep)
	}
}

func TestTwoPassDeletionStream(t *testing.T) {
	// The same final graph delivered with heavy churn must produce a
	// valid spanner: deleted edges must never appear.
	g := graph.ConnectedGNP(50, 0.15, 11)
	st := stream.WithChurn(g, 400, 12)
	res, err := BuildTwoPass(st, Config{K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spanner.IsSubgraphOf(g) {
		t.Fatal("churn stream leaked deleted edges into spanner")
	}
	if rep := verify.Stretch(g, res.Spanner, 10); rep.Disconnected != 0 || rep.Shortcuts != 0 || rep.MaxStretch > 4 {
		t.Errorf("stretch %v (report %+v) exceeds 4 under churn", rep.MaxStretch, rep)
	}
}

func TestTwoPassDisconnectedGraph(t *testing.T) {
	g := graph.New(40)
	for b := 0; b < 2; b++ {
		for i := 0; i < 19; i++ {
			g.AddUnitEdge(b*20+i, b*20+i+1)
		}
	}
	res := buildFromGraph(t, g, Config{K: 2, Seed: 14})
	// Components must be preserved exactly (no cross edges invented,
	// no component disconnected).
	_, cG := g.Components()
	_, cH := res.Spanner.Components()
	if cG != cH {
		t.Errorf("spanner has %d components, graph has %d", cH, cG)
	}
	if !res.Spanner.IsSubgraphOf(g) {
		t.Error("invented edges")
	}
}

func TestTwoPassEmptyGraph(t *testing.T) {
	st := stream.NewMemoryStream(10)
	res, err := BuildTwoPass(st, Config{K: 2, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.M() != 0 {
		t.Errorf("empty graph produced %d edges", res.Spanner.M())
	}
}

func TestTwoPassSingleEdge(t *testing.T) {
	st := stream.NewMemoryStream(5)
	_ = st.Append(stream.Update{U: 1, V: 3, Delta: 1})
	res, err := BuildTwoPass(st, Config{K: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spanner.HasEdge(1, 3) || res.Spanner.M() != 1 {
		t.Errorf("spanner = %v", res.Spanner.Edges())
	}
}

func TestTwoPassCompleteGraphSparsifies(t *testing.T) {
	// K_n has Θ(n²) edges; a 2^k spanner should keep far fewer.
	g := graph.Complete(64)
	res := buildFromGraph(t, g, Config{K: 3, Seed: 17})
	if res.Spanner.M() >= g.M()/2 {
		t.Errorf("spanner kept %d of %d edges — no compression", res.Spanner.M(), g.M())
	}
	if rep := verify.Stretch(g, res.Spanner, 16); rep.Disconnected != 0 || rep.Shortcuts != 0 || rep.MaxStretch > 8 {
		t.Errorf("stretch %v (report %+v)", rep.MaxStretch, rep)
	}
}

func TestTwoPassSizeBound(t *testing.T) {
	// Lemma 12: |E'| = O(k n^{1+1/k} log n). Check with constant 4.
	n := 100
	g := graph.GNP(n, 0.3, 18)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 19})
	bound := 4 * 2 * math.Pow(float64(n), 1.5) * math.Log2(float64(n))
	if float64(res.Spanner.M()) > bound {
		t.Errorf("|E'| = %d exceeds size bound %v", res.Spanner.M(), bound)
	}
}

func TestTwoPassMultigraphMultiplicities(t *testing.T) {
	st := stream.NewMemoryStream(6)
	// Edge (0,1) multiplicity 3, edge (1,2) multiplicity 1 after churn.
	for i := 0; i < 3; i++ {
		_ = st.Append(stream.Update{U: 0, V: 1, Delta: 1})
	}
	_ = st.Append(stream.Update{U: 1, V: 2, Delta: 1})
	_ = st.Append(stream.Update{U: 1, V: 2, Delta: -1})
	_ = st.Append(stream.Update{U: 1, V: 2, Delta: 1})
	res, err := BuildTwoPass(st, Config{K: 2, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spanner.HasEdge(0, 1) || !res.Spanner.HasEdge(1, 2) {
		t.Errorf("spanner = %v", res.Spanner.Edges())
	}
}

func TestTwoPassAugmentedSuperset(t *testing.T) {
	g := graph.ConnectedGNP(50, 0.15, 21)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 22, CollectAugmented: true})
	if res.Augmented == nil {
		t.Fatal("augmented graph not collected")
	}
	if !res.Spanner.IsSubgraphOf(res.Augmented) {
		t.Error("spanner not contained in augmented edge set")
	}
	if !res.Augmented.IsSubgraphOf(g) {
		t.Error("augmented set contains non-graph edges")
	}
}

func TestTwoPassPhaseErrors(t *testing.T) {
	tp := NewTwoPass(10, Config{K: 2, Seed: 23})
	if err := tp.Pass2Update(stream.Update{U: 0, V: 1, Delta: 1}); err == nil {
		t.Error("Pass2Update before EndPass1 accepted")
	}
	if _, err := tp.Finish(); err == nil {
		t.Error("Finish before pass 2 accepted")
	}
	if err := tp.EndPass1(); err != nil {
		t.Fatal(err)
	}
	if err := tp.EndPass1(); err == nil {
		t.Error("double EndPass1 accepted")
	}
	if err := tp.Pass1Update(stream.Update{U: 0, V: 1, Delta: 1}); err == nil {
		t.Error("Pass1Update after EndPass1 accepted")
	}
}

func TestTwoPassSpaceAccounting(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.1, 24)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 25})
	if res.SpaceWords <= 0 {
		t.Error("space accounting must be positive")
	}
}

func TestTwoPassReliabilityAcrossSeeds(t *testing.T) {
	// The guarantee is whp; count stretch violations across seeds.
	g := graph.ConnectedGNP(50, 0.15, 26)
	bad := 0
	for seed := uint64(0); seed < 8; seed++ {
		st := stream.FromGraph(g, seed)
		res, err := BuildTwoPass(st, Config{K: 2, Seed: seed * 7})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Spanner.IsSubgraphOf(g) {
			t.Fatalf("seed %d: non-subgraph", seed)
		}
		dg := g.BFS(0)
		dh := res.Spanner.BFS(0)
		for v := 1; v < g.N(); v++ {
			if dg[v] > 0 && (dh[v] == -1 || dh[v] > 4*dg[v]) {
				bad++
				break
			}
		}
	}
	if bad > 1 {
		t.Errorf("stretch bound violated on %d/8 seeds", bad)
	}
}

func TestTwoPassWeighted(t *testing.T) {
	base := graph.ConnectedGNP(40, 0.2, 27)
	g := graph.RandomWeighted(base, 1, 64, 28)
	st := stream.FromGraph(g, 29)
	const classBase = 2.0
	res, err := BuildTwoPassWeighted(st, Config{K: 2, Seed: 30}, classBase)
	if err != nil {
		t.Fatal(err)
	}
	// Every spanner edge exists in g (weights are rounded up to the
	// class boundary, so compare endpoints only).
	for _, e := range res.Spanner.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("weighted spanner invented edge (%d,%d)", e.U, e.V)
		}
		trueW, _ := g.Weight(e.U, e.V)
		if e.W < trueW || e.W > classBase*trueW {
			t.Fatalf("edge (%d,%d) weight %v outside [w, 2w] of true %v", e.U, e.V, e.W, trueW)
		}
	}
	// Weighted stretch: d_H <= classBase · 2^k · d_G, and d_H >= d_G.
	for src := 0; src < 10; src++ {
		dgs := g.Dijkstra(src)
		dhs := res.Spanner.Dijkstra(src)
		for v := 0; v < g.N(); v++ {
			if v == src {
				continue
			}
			if dhs[v] > classBase*4*dgs[v]+1e-9 {
				t.Fatalf("weighted stretch: d_H(%d,%d)=%v vs bound %v",
					src, v, dhs[v], classBase*4*dgs[v])
			}
			if dhs[v] < dgs[v]-1e-9 {
				t.Fatalf("weighted shortcut at (%d,%d)", src, v)
			}
		}
	}
}

func TestTwoPassWeightedBadBase(t *testing.T) {
	st := stream.NewMemoryStream(4)
	if _, err := BuildTwoPassWeighted(st, Config{K: 2}, 1.0); err == nil {
		t.Error("classBase=1 accepted")
	}
}

func TestTwoPassStats(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.15, 31)
	res := buildFromGraph(t, g, Config{K: 2, Seed: 32})
	st := res.Stats
	if len(st.CopiesPerLevel) != 2 || len(st.TerminalsPerLevel) != 2 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.CopiesPerLevel[0] != g.N() {
		t.Errorf("level-0 copies = %d, want n = %d (C_0 = V)", st.CopiesPerLevel[0], g.N())
	}
	totalTerm := 0
	for i, c := range st.TerminalsPerLevel {
		if c > st.CopiesPerLevel[i] {
			t.Errorf("level %d: more terminals than copies", i)
		}
		totalTerm += c
	}
	if totalTerm != res.Terminals {
		t.Errorf("terminals mismatch: %d vs %d", totalTerm, res.Terminals)
	}
	// Level k-1 copies are all terminal by construction.
	if st.TerminalsPerLevel[1] != st.CopiesPerLevel[1] {
		t.Errorf("level k-1 not all terminal: %d of %d",
			st.TerminalsPerLevel[1], st.CopiesPerLevel[1])
	}
	if st.WitnessEdges+st.RecoveredEdges < res.Spanner.M() {
		t.Errorf("edge accounting: witness %d + recovered %d < spanner %d",
			st.WitnessEdges, st.RecoveredEdges, res.Spanner.M())
	}
	if st.MaxClusterSize < 1 || st.MaxClusterSize > g.N() {
		t.Errorf("max cluster size %d out of range", st.MaxClusterSize)
	}
}
