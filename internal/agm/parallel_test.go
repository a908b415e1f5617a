package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// Sharded-ingest equivalence for the AGM application sketches: states
// built over round-robin shards and merged must extract exactly what a
// single-threaded state extracts, because the sketches are linear.

func churned(n int, p float64, extra int, seed uint64) (*graph.Graph, *stream.MemoryStream) {
	g := graph.ConnectedGNP(n, p, seed)
	return g, stream.WithChurn(g, extra, seed+1)
}

func sameEdges(t *testing.T, name string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges vs serial %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %+v vs serial %+v", name, i, got[i], want[i])
		}
	}
}

func TestForestShardedMatchesSerial(t *testing.T) {
	_, st := churned(80, 0.08, 400, 201)
	serial := New(7, st.N(), Config{})
	if err := st.Replay(func(u stream.Update) error { serial.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := serial.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		sk, err := parallel.Ingest(st, workers, func() *Sketch { return New(7, st.N(), Config{}) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := sk.SpanningForestOpts(nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameEdges(t, "forest", got, want)
	}
}

func TestKConnectivityShardedMatchesSerial(t *testing.T) {
	_, st := churned(40, 0.2, 150, 203)
	serial := NewKConnectivity(9, st.N(), 3)
	if err := st.Replay(func(u stream.Update) error { serial.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := serial.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := parallel.Ingest(st, 4, func() *KConnectivity { return NewKConnectivity(9, st.N(), 3) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := kc.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "kcert", got.Edges(), want.Edges())
}

func TestBipartitenessShardedMatchesSerial(t *testing.T) {
	// Even cycle (bipartite) and odd cycle (not), both with churn.
	for _, tc := range []struct {
		n    int
		want bool
	}{{20, true}, {21, false}} {
		st := stream.NewMemoryStream(tc.n)
		for v := 0; v < tc.n; v++ {
			if err := st.Append(stream.Update{U: v, V: (v + 1) % tc.n, Delta: 1}); err != nil {
				t.Fatal(err)
			}
		}
		b, err := parallel.Ingest(st, 3, func() *Bipartiteness { return NewBipartiteness(11, tc.n) })
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.IsBipartiteOpts(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("n=%d: bipartite=%v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMSFShardedMatchesSerial(t *testing.T) {
	n := 30
	g := graph.ConnectedGNP(n, 0.15, 205)
	// Weighted stream: deterministic per-edge weights.
	st := stream.NewMemoryStream(n)
	wmax := 1.0
	for _, e := range g.Edges() {
		w := float64(1 + (e.U*7+e.V*3)%16)
		if w > wmax {
			wmax = w
		}
		if err := st.Append(stream.Update{U: e.U, V: e.V, Delta: 1, W: w}); err != nil {
			t.Fatal(err)
		}
	}
	serial := NewMSF(13, n, wmax, 0.5)
	if err := st.Replay(func(u stream.Update) error { serial.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := serial.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := parallel.Ingest(st, 4, func() *MSF { return NewMSF(13, n, wmax, 0.5) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "msf", got, want)
}

func TestApplicationMergeIncompatible(t *testing.T) {
	if err := NewKConnectivity(1, 10, 2).Merge(NewKConnectivity(1, 10, 3)); err == nil {
		t.Error("KConnectivity.Merge accepted mismatched k")
	}
	if err := NewKConnectivity(1, 10, 2).Merge(NewKConnectivity(2, 10, 2)); err == nil {
		t.Error("KConnectivity.Merge accepted mismatched seeds")
	}
	if err := NewBipartiteness(1, 10).Merge(NewBipartiteness(1, 12)); err == nil {
		t.Error("Bipartiteness.Merge accepted mismatched n")
	}
	if err := NewMSF(1, 10, 8, 0.5).Merge(NewMSF(1, 10, 8, 0.25)); err == nil {
		t.Error("MSF.Merge accepted mismatched gamma")
	}
}
