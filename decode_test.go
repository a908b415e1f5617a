package dynstream_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// Seeded parallel-decode == serial-decode equivalence for every
// target: the decode engine fans per-component / per-center / per-cell
// work across workers but places results by index and applies them in
// the serial order, so the decoded output must be bit-identical at any
// decode worker count. The matrix runs random and churned streams at
// 1/2/4/8 decode workers; `go test -race` doubles as the data-race
// gate for the fan-out.

var decodeWorkerCounts = []int{1, 2, 4, 8}

// decodeStreams is the two stream shapes of the equivalence matrix.
func decodeStreams() map[string]*dynstream.MemoryStream {
	g := graph.ConnectedGNP(64, 0.1, 7001)
	for i := 0; i < g.N(); i++ {
		g.AddEdge(i, (i+5)%g.N(), float64(1+i%6))
	}
	return map[string]*dynstream.MemoryStream{
		"random": dynstream.StreamFromGraph(g, 7002),
		"churn":  dynstream.StreamWithChurn(g, 400, 7003),
	}
}

func TestForestDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}}
	for name, st := range decodeStreams() {
		t.Run(name, func(t *testing.T) {
			sk, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 7100})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := sk.SpanningForestOpts(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			serialGrouped, err := sk.SpanningForestOpts(groups, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range decodeWorkerCounts {
				got, err := sk.SpanningForestOpts(nil, parallel.Default().WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("decode workers=%d: forest differs from serial decode", w)
				}
				got, err = sk.SpanningForestOpts(groups, parallel.Default().WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, serialGrouped) {
					t.Fatalf("decode workers=%d: supernode forest differs from serial decode", w)
				}
			}
		})
	}
}

func TestKConnectivityDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	target := dynstream.KConnectivityTarget{Seed: 7200, K: 3}
	for name, st := range decodeStreams() {
		t.Run(name, func(t *testing.T) {
			// Certificate consumes the sketches (forest subtraction), so
			// each decode runs on a freshly ingested same-seeded state.
			build := func() *dynstream.KConnectivity {
				kc, err := dynstream.Build(ctx, st, target)
				if err != nil {
					t.Fatal(err)
				}
				return kc
			}
			serial, err := build().CertificateOpts(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range decodeWorkerCounts {
				got, err := build().CertificateOpts(parallel.Default().WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("decode workers=%d: certificate differs from serial decode", w)
				}
			}
		})
	}
}

func TestBipartitenessDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	even, odd := graph.Cycle(40), graph.Cycle(41)
	for name, g := range map[string]*graph.Graph{"even": even, "odd": odd} {
		t.Run(name, func(t *testing.T) {
			st := dynstream.StreamWithChurn(g, 200, 7300)
			b, err := dynstream.Build(ctx, st, dynstream.BipartitenessTarget{Seed: 7301})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := b.IsBipartiteOpts(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range decodeWorkerCounts {
				got, err := b.IsBipartiteOpts(parallel.Default().WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if got != serial {
					t.Fatalf("decode workers=%d: verdict %v, serial %v", w, got, serial)
				}
			}
		})
	}
}

func TestMSFDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, st := range decodeStreams() {
		t.Run(name, func(t *testing.T) {
			m, err := dynstream.Build(ctx, st, dynstream.MSFTarget{Seed: 7400, Gamma: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := m.ForestOpts(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range decodeWorkerCounts {
				got, err := m.ForestOpts(parallel.Default().WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("decode workers=%d: msf differs from serial decode", w)
				}
			}
		})
	}
}

func TestSpannerDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{
		K: 3, Seed: 7500, CollectAugmented: true,
	}}
	for name, st := range decodeStreams() {
		t.Run(name, func(t *testing.T) {
			serial, err := dynstream.Build(ctx, st, target, dynstream.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range decodeWorkerCounts {
				// Parallel ingest × parallel decode, both axes at once.
				got, err := dynstream.Build(ctx, st, target,
					dynstream.WithWorkers(2), dynstream.WithDecodeWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				edgesEqual(t, fmt.Sprintf("spanner decode=%d", w), got.Spanner, serial.Spanner)
				edgesEqual(t, fmt.Sprintf("augmented decode=%d", w), got.Augmented, serial.Augmented)
				if got.Terminals != serial.Terminals || !reflect.DeepEqual(got.Stats, serial.Stats) {
					t.Fatalf("decode workers=%d: stats differ: %+v vs %+v", w, got.Stats, serial.Stats)
				}
			}
		})
	}
}

func TestAdditiveDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	target := dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 4, Seed: 7600}}
	for name, st := range decodeStreams() {
		t.Run(name, func(t *testing.T) {
			serial, err := dynstream.Build(ctx, st, target, dynstream.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range decodeWorkerCounts {
				got, err := dynstream.Build(ctx, st, target,
					dynstream.WithWorkers(2), dynstream.WithDecodeWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				edgesEqual(t, fmt.Sprintf("additive decode=%d", w), got.Spanner, serial.Spanner)
			}
		})
	}
}

func TestSparsifierDecodeEquivalence(t *testing.T) {
	ctx := context.Background()
	g := graph.Complete(10)
	st := dynstream.StreamFromGraph(g, 7700)
	target := dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
		K: 1, Z: 4, Seed: 7701,
		Estimate: dynstream.EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 7702},
	}}
	serial, err := dynstream.Build(ctx, st, target, dynstream.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range decodeWorkerCounts {
		got, err := dynstream.Build(ctx, st, target,
			dynstream.WithWorkers(2), dynstream.WithDecodeWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, fmt.Sprintf("sparsifier decode=%d", w), got.Sparsifier, serial.Sparsifier)
	}
}

// TestRemoteDecodeEquivalence drives the distributed coordinator path
// with parallel decode: worker blobs are tree-merged and the final
// extraction runs on 4 decode workers — the state (and every decoded
// result) must stay byte-identical to the serial local build.
func TestRemoteDecodeEquivalence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st := remoteTestStream(t)
	addrs := startWorkers(t, ctx, 3)
	cluster, err := dynstream.DialWorkers(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	t.Run("forest", func(t *testing.T) {
		serial, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 7800})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 7800},
			dynstream.WithRemoteCluster(cluster), dynstream.WithDecodeWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		marshalEqual(t, "forest sketch", serial, remote)
		sf, err := serial.SpanningForestOpts(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := remote.SpanningForestOpts(nil, parallel.Default().WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sf, rf) {
			t.Fatal("remote + parallel decode forest differs from serial")
		}
	})

	t.Run("spanner", func(t *testing.T) {
		target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 7801}}
		serial, err := dynstream.Build(ctx, st, target)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target,
			dynstream.WithRemoteCluster(cluster), dynstream.WithDecodeWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "remote spanner", remote.Spanner, serial.Spanner)
	})
}

func TestDecodeWorkersValidation(t *testing.T) {
	st := decodeStreams()["random"]
	_, err := dynstream.Build(context.Background(), st,
		dynstream.ForestTarget{Seed: 1}, dynstream.WithDecodeWorkers(0))
	if !errors.Is(err, dynstream.ErrBadWorkers) {
		t.Fatalf("WithDecodeWorkers(0): got %v, want ErrBadWorkers", err)
	}
}
