package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

func BenchmarkSketchUpdate(b *testing.B) {
	s := New(1, 256, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddEdge(i%255, (i+1)%255+1, 1)
	}
}

func BenchmarkSpanningForest(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.05, 2)
	s := New(3, g.N(), Config{})
	_ = stream.FromGraph(g, 4).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SpanningForestOpts(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartiteness(b *testing.B) {
	g := graph.Cycle(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bip := NewBipartiteness(uint64(i), g.N())
		_ = stream.FromGraph(g, 5).Replay(func(u stream.Update) error {
			bip.AddUpdate(u)
			return nil
		})
		if _, err := bip.IsBipartiteOpts(nil); err != nil {
			b.Fatal(err)
		}
	}
}
