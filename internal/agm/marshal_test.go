package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

func TestAGMMarshalRoundTrip(t *testing.T) {
	g := graph.ConnectedGNP(20, 0.2, 1)
	s := New(2, g.N(), Config{})
	_ = stream.FromGraph(g, 3).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	forest, err := back.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := graph.NewUnionFind(g.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Error("round-tripped sketch lost connectivity")
	}
}

func TestAGMMergeAcrossShards(t *testing.T) {
	// Two shards, cross-shard deletion, coordinator merge — the
	// introduction's distributed protocol, with one shard shipped as
	// bytes.
	const n = 12
	g := graph.Cycle(n)
	a := New(5, n, Config{})
	b := New(5, n, Config{})
	// Shard A gets even-indexed edges plus an edge later deleted in B.
	for i, e := range g.Edges() {
		if i%2 == 0 {
			a.AddEdge(e.U, e.V, 1)
		} else {
			b.AddEdge(e.U, e.V, 1)
		}
	}
	a.AddEdge(0, 5, 1)  // noise edge inserted on A
	b.AddEdge(0, 5, -1) // ... deleted on B
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var remote Sketch
	if err := remote.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(&remote); err != nil {
		t.Fatal(err)
	}
	forest, err := a.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := graph.NewUnionFind(n)
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("merged forest contains phantom edge (%d,%d)", e.U, e.V)
		}
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Error("merged sketch lost connectivity")
	}
}

func TestAGMMergeIncompatible(t *testing.T) {
	a := New(1, 10, Config{})
	b := New(2, 10, Config{})
	if err := a.Merge(b); err == nil {
		t.Error("different seeds merged")
	}
	c := New(1, 11, Config{})
	if err := a.Merge(c); err == nil {
		t.Error("different sizes merged")
	}
}

func TestAGMUnmarshalCorrupt(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary([]byte{0}); err == nil {
		t.Error("garbage accepted")
	}
	good := New(3, 6, Config{})
	enc, _ := good.MarshalBinary()
	if err := s.UnmarshalBinary(enc[:len(enc)/2]); err == nil {
		t.Error("truncated accepted")
	}
}
