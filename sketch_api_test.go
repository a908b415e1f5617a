package dynstream

import (
	"context"
	"testing"

	"dynstream/internal/graph"
)

// TestSketchViewsWirePipeline drives every Sketch view through the
// same distributed pipeline: ingest a shard, marshal, unmarshal on a
// fresh view, merge into the other shard's view — then check the
// decoded result matches a single-state reference.
func TestSketchViewsWirePipeline(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 1001)
	st := StreamWithChurn(g, 120, 1002)
	shards, err := SplitStream(st, 2)
	if err != nil {
		t.Fatal(err)
	}

	ingest := func(t *testing.T, sk Sketch, src Source) {
		t.Helper()
		if err := IngestSketch(src, sk); err != nil {
			t.Fatal(err)
		}
	}
	// shipMerge ingests shard 0 into a, shard 1 into b, round-trips b
	// through its wire encoding into fresh, and merges it into a.
	shipMerge := func(t *testing.T, a, b, fresh Sketch) {
		t.Helper()
		ingest(t, a, shards[0])
		ingest(t, b, shards[1])
		enc, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		if err := a.Merge(fresh); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("forest", func(t *testing.T) {
		ref := NewForestSketch(1003, st.N(), ForestConfig{})
		ingest(t, ForestSketchView(ref), st)
		want, err := ref.SpanningForestOpts(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := NewForestSketch(1003, st.N(), ForestConfig{})
		b := NewForestSketch(1003, st.N(), ForestConfig{})
		fresh := NewForestSketch(1003, st.N(), ForestConfig{})
		shipMerge(t, ForestSketchView(a), ForestSketchView(b), ForestSketchView(fresh))
		got, err := a.SpanningForestOpts(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("forest: %d edges vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("forest edge %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("kconnectivity", func(t *testing.T) {
		a := NewKConnectivity(1004, st.N(), 2)
		b := NewKConnectivity(1004, st.N(), 2)
		fresh := NewKConnectivity(1004, st.N(), 2)
		shipMerge(t, KConnectivityView(a), KConnectivityView(b), KConnectivityView(fresh))
		if _, err := a.CertificateGraphOpts(nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bipartiteness", func(t *testing.T) {
		a := NewBipartiteness(1005, st.N())
		b := NewBipartiteness(1005, st.N())
		fresh := NewBipartiteness(1005, st.N())
		shipMerge(t, BipartitenessView(a), BipartitenessView(b), BipartitenessView(fresh))
		if _, err := a.IsBipartiteOpts(nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("msf", func(t *testing.T) {
		a := NewMSF(1006, st.N(), 8, 0.5)
		b := NewMSF(1006, st.N(), 8, 0.5)
		fresh := NewMSF(1006, st.N(), 8, 0.5)
		shipMerge(t, MSFView(a), MSFView(b), MSFView(fresh))
		if _, err := a.ForestOpts(nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("additive", func(t *testing.T) {
		cfg := AdditiveConfig{D: 3, Seed: 1007}
		ref := NewAdditiveSpanner(st.N(), cfg)
		ingest(t, AdditiveSpannerView(ref), st)
		want, err := ref.Finish()
		if err != nil {
			t.Fatal(err)
		}
		a := NewAdditiveSpanner(st.N(), cfg)
		b := NewAdditiveSpanner(st.N(), cfg)
		fresh := NewAdditiveSpanner(st.N(), cfg)
		shipMerge(t, AdditiveSpannerView(a), AdditiveSpannerView(b), AdditiveSpannerView(fresh))
		got, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "additive view", got.Spanner, want.Spanner)
	})

	t.Run("twopass", func(t *testing.T) {
		cfg := SpannerConfig{K: 2, Seed: 1008}
		want, err := Build(context.Background(), st, SpannerTarget{Config: cfg}, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		a := NewTwoPassSpanner(st.N(), cfg)
		b := NewTwoPassSpanner(st.N(), cfg)
		fresh := NewTwoPassSpanner(st.N(), cfg)
		shipMerge(t, TwoPassPass1View(a), TwoPassPass1View(b), TwoPassPass1View(fresh))
		if err := a.EndPass1(); err != nil {
			t.Fatal(err)
		}
		ingest(t, TwoPassPass2View(a), st)
		got, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "two-pass view", got.Spanner, want.Spanner)
	})

	t.Run("grid", func(t *testing.T) {
		cfg := EstimateConfig{K: 1, J: 2, T: 4, Delta: 0.34, Seed: 1009}
		a, err := NewOracleGrid(st.N(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewOracleGrid(st.N(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewOracleGrid(st.N(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		shipMerge(t, GridPass1View(a), GridPass1View(b), GridPass1View(fresh))
		if err := a.EndPass1(); err != nil {
			t.Fatal(err)
		}
		ingest(t, GridPass2View(a), st)
		if _, err := a.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSketchViewMergeMismatch: merging different view kinds is a typed
// configuration error.
func TestSketchViewMergeMismatch(t *testing.T) {
	f := ForestSketchView(NewForestSketch(1, 8, ForestConfig{}))
	b := BipartitenessView(NewBipartiteness(1, 8))
	if err := f.Merge(b); err == nil {
		t.Fatal("merged a bipartiteness view into a forest view")
	}
}
