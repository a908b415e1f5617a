package dynstream

// Benchmark harness: one testing.B benchmark per paper experiment of
// `cmd/spannerbench` (E1–E9, A1–A3). Each benchmark runs the same
// pipeline as the corresponding spannerbench table at a fixed workload and
// reports the paper-relevant quantities as custom metrics
// (stretch/size/space/ε) next to ns/op and allocations.
//
// Run: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dynstream/internal/baseline"
	"dynstream/internal/dynnet"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/linalg"
	"dynstream/internal/lowerbound"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

const benchSeed = 0xbe7c

// benchHostJSON renders the host-metadata object BENCH_ingest.json
// records next to every tracked block: the GOMAXPROCS/NumCPU the
// numbers were measured under, the toolchain, and the commit. Tracked
// benchmarks log it so a recording session captures the block to paste
// verbatim.
func benchHostJSON() string {
	commit := "unknown"
	if data, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := string(bytes.TrimSpace(data))
		if rest, ok := bytes.CutPrefix([]byte(ref), []byte("ref: ")); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", string(bytes.TrimSpace(rest)))); err == nil && len(sha) >= 7 {
				commit = string(sha[:7])
			}
		} else if len(ref) >= 7 {
			commit = ref[:7]
		}
	}
	return fmt.Sprintf(`{ "gomaxprocs": %d, "numcpu": %d, "go": %q, "commit": %q }`,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// reportHost logs the host-metadata block once per tracked benchmark.
func reportHost(b *testing.B) {
	b.Helper()
	b.Logf("host: %s", benchHostJSON())
}

// BenchmarkE1TwoPassSpanner measures the two-pass 2^k-spanner pipeline
// (Theorem 1) end to end on a churned dynamic stream.
func BenchmarkE1TwoPassSpanner(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.07, benchSeed)
	st := stream.WithChurn(g, 2*g.M(), benchSeed+1)
	var res *spanner.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = spanner.BuildTwoPass(st, spanner.Config{K: 2, Seed: benchSeed + uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	rep := verify.Stretch(g, res.Spanner, 8)
	b.ReportMetric(rep.MaxStretch, "maxStretch")
	b.ReportMetric(float64(res.Spanner.M()), "spannerEdges")
}

// BenchmarkE2SpannerSize reports spanner size against the Lemma 12
// bound k·n^{1+1/k}·log n.
func BenchmarkE2SpannerSize(b *testing.B) {
	const n, k = 192, 2
	g := graph.ConnectedGNP(n, 0.06, benchSeed+2)
	st := stream.FromGraph(g, benchSeed+3)
	var res *spanner.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: benchSeed + 4 + uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	bound := float64(k) * math.Pow(n, 1+1.0/k) * math.Log2(n)
	b.ReportMetric(float64(res.Spanner.M()), "edges")
	b.ReportMetric(float64(res.Spanner.M())/bound, "edgesOverBound")
}

// BenchmarkE3SpannerSpace reports the sketch footprint against the
// Theorem 1 space bound.
func BenchmarkE3SpannerSpace(b *testing.B) {
	const n, k = 192, 3
	g := graph.ConnectedGNP(n, 0.06, benchSeed+5)
	st := stream.FromGraph(g, benchSeed+6)
	var res *spanner.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: benchSeed + 7 + uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	l := math.Log2(float64(n))
	b.ReportMetric(float64(res.SpaceWords), "spaceWords")
	b.ReportMetric(float64(res.SpaceWords)/(float64(k)*math.Pow(n, 1+1.0/k)*l*l*l), "spaceOverBound")
}

// BenchmarkE4AdditiveSpanner measures the single-pass additive spanner
// (Theorem 3) on a dense churned stream.
func BenchmarkE4AdditiveSpanner(b *testing.B) {
	const n, d = 128, 4
	g := graph.ConnectedGNP(n, 0.16, benchSeed+8)
	st := stream.WithChurn(g, g.M(), benchSeed+9)
	var res *spanner.AdditiveResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = spanner.BuildAdditive(st, spanner.AdditiveConfig{
			D: d, DegreeFactor: 0.5, Seed: benchSeed + 10 + uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	rep := verify.Additive(g, res.Spanner, 8)
	b.ReportMetric(float64(rep.MaxError), "maxAdditiveErr")
	b.ReportMetric(float64(n/d), "errBound")
	b.ReportMetric(float64(res.Spanner.M()), "spannerEdges")
}

// BenchmarkE5LowerBound plays the Theorem 4 INDEX game at matched
// space and reports the success rate (should be ~1).
func BenchmarkE5LowerBound(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.Play(lowerbound.GameConfig{
			Blocks: 6, BlockSize: 12, AlgD: 12, Trials: 4,
			Seed: benchSeed + 11 + uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.SuccessRate()
	}
	b.ReportMetric(rate, "successRate")
}

// BenchmarkE6Sparsifier measures the two-pass spectral sparsifier
// (Corollary 2) on K16 and reports exact spectral error.
func BenchmarkE6Sparsifier(b *testing.B) {
	g := graph.Complete(16)
	st := stream.FromGraph(g, benchSeed+12)
	var res *sparsify.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sparsify.Sparsify(st, sparsify.Config{
			K: 1, Z: 32, Seed: benchSeed + 13 + uint64(i),
			Estimate: sparsify.EstimateConfig{
				K: 1, J: 3, T: 8, Delta: 0.34, Seed: benchSeed + 14 + uint64(i),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	eps, err := linalg.SpectralEpsilon(g, res.Sparsifier)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(eps, "spectralEps")
	b.ReportMetric(float64(res.Sparsifier.M()), "edges")
}

// BenchmarkE7SSBaseline measures the offline Spielman–Srivastava
// baseline (Theorem 7) at the same instance family as E6.
func BenchmarkE7SSBaseline(b *testing.B) {
	g := graph.Complete(64)
	var h *graph.Graph
	for i := 0; i < b.N; i++ {
		h = sparsify.SpielmanSrivastava(g, 0.5, 1.0, benchSeed+15+uint64(i))
	}
	eps, err := linalg.SpectralEpsilon(g, h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(eps, "spectralEps")
	b.ReportMetric(float64(h.M()), "edges")
}

// BenchmarkE8AGMForest measures spanning-forest extraction from AGM
// sketches (Theorem 10) under heavy churn.
func BenchmarkE8AGMForest(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.05, benchSeed+16)
	st := stream.WithChurn(g, 2*g.M(), benchSeed+17)
	success := 0.0
	var space int
	for i := 0; i < b.N; i++ {
		sk := NewForestSketch(benchSeed+18+uint64(i), g.N(), ForestConfig{})
		if err := st.Replay(func(u stream.Update) error { sk.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		forest, err := sk.SpanningForestOpts(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		space = sk.SpaceWords()
		uf := graph.NewUnionFind(g.N())
		for _, e := range forest {
			uf.Union(e.U, e.V)
		}
		if uf.Sets() == 1 {
			success++
		}
	}
	b.ReportMetric(success/float64(b.N), "successRate")
	b.ReportMetric(float64(space), "spaceWords")
}

// BenchmarkE9Baselines measures the offline Baswana–Sen baseline at the
// E9 workload (compare with BenchmarkE1TwoPassSpanner).
func BenchmarkE9Baselines(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.1, benchSeed+19)
	var h *graph.Graph
	for i := 0; i < b.N; i++ {
		h = baseline.BaswanaSen(g, 2, benchSeed+20+uint64(i))
	}
	rep := verify.Stretch(g, h, 8)
	b.ReportMetric(rep.MaxStretch, "maxStretch")
	b.ReportMetric(float64(h.M()), "edges")
}

// BenchmarkParallelIngest measures the concurrent sharded-ingest
// pipeline: the same churn stream is ingested into AGM forest sketches
// by 1/2/4/8 workers and merged, so the speedup of the worker pool is
// tracked in the perf trajectory. Output is identical across worker
// counts (linearity), which is asserted once per run. The workload is
// ingest-dominated (a long churn stream over a moderate vertex set):
// sharding pays for the per-worker state allocation and the final
// merge only when the update volume dwarfs the sketch size, which is
// exactly the heavy-traffic regime the pipeline targets.
func BenchmarkParallelIngest(b *testing.B) {
	g := graph.ConnectedGNP(64, 0.2, benchSeed+30)
	st := stream.WithChurn(g, 30000, benchSeed+31)
	serial, err := Build(context.Background(), st, ForestTarget{Seed: benchSeed + 32}, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	wantForest, err := serial.SpanningForestOpts(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var sk *ForestSketch
			for i := 0; i < b.N; i++ {
				sk, err = Build(context.Background(), st, ForestTarget{Seed: benchSeed + 32}, WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			forest, err := sk.SpanningForestOpts(nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(forest) != len(wantForest) {
				b.Fatalf("workers=%d: forest %d edges, serial %d", workers, len(forest), len(wantForest))
			}
			b.ReportMetric(float64(st.Len()*b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkIngestThroughput is the ingest trajectory benchmark tracked
// in BENCH_ingest.json: updates/sec folding a churned dynamic stream
// into an AGM forest sketch, at n ∈ {1k, 10k} vertices and 1 or 4
// workers. It exercises the whole fast path of the batched ingest
// stack — fixed-base power tables, shared per-round L0 families with
// flattened cell storage, hint-routed endpoint updates, and batched
// shard replay. (The n=10k instance is construction-heavy: sketch
// allocation is part of what the trajectory tracks.)
func BenchmarkIngestThroughput(b *testing.B) {
	reportHost(b)
	for _, n := range []int{1000, 10000} {
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+40)
		st := stream.WithChurn(g, 20000, benchSeed+41)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n%d/workers%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Build(context.Background(), st, ForestTarget{Seed: benchSeed + 42}, WithWorkers(workers)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.Len()*b.N)/b.Elapsed().Seconds(), "updates/s")
			})
		}
	}
}

// BenchmarkDecodeThroughput is the decode trajectory benchmark tracked
// in BENCH_ingest.json: the extraction phase isolated from ingest, at
// 1 vs NumCPU decode workers. Forest and k-connectivity run the
// Borůvka-round decode at n ∈ {1k, 10k} (the certificate consumes its
// sketches, so each iteration restores them from a marshaled snapshot
// with the timer stopped); the two-pass spanner times EndPass1 cluster
// construction plus Finish table peeling at n=1k; the sparsifier
// oracle grid times its per-cell extraction at n=256. Output is
// asserted identical across worker counts by the decode equivalence
// tests — here only the wall clock varies.
func BenchmarkDecodeThroughput(b *testing.B) {
	reportHost(b)
	multi := runtime.NumCPU()
	if multi < 2 {
		multi = 4 // single-core host: the point still tracks fan-out overhead
	}
	workerCounts := []int{1, multi}

	for _, n := range []int{1000, 10000} {
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+60)
		st := stream.WithChurn(g, 20000, benchSeed+61)
		sk := NewForestSketch(benchSeed+62, n, ForestConfig{})
		if err := st.Replay(func(u stream.Update) error { sk.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("forest/n%d/decode%d", n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sk.SpanningForestOpts(nil, parallel.Default().WithWorkers(w)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
			})
		}

		kc := NewKConnectivity(benchSeed+63, n, 2)
		if err := st.Replay(func(u stream.Update) error { kc.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		blob, err := kc.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("kconn/n%d/decode%d", n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh := &KConnectivity{}
					if err := fresh.UnmarshalBinary(blob); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := fresh.CertificateOpts(parallel.Default().WithWorkers(w)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
			})
		}
	}

	{
		const n = 1000
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+64)
		st := stream.WithChurn(g, 10000, benchSeed+65)
		tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: benchSeed + 66})
		if err := stream.ReplayBatches(st, 0, tp.Pass1AddBatch); err != nil {
			b.Fatal(err)
		}
		blob, err := tp.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("spanner/n%d/decode%d", n, w), func(b *testing.B) {
				p := parallel.Default().WithWorkers(w)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh := &spanner.TwoPass{}
					if err := fresh.UnmarshalBinary(blob); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := fresh.EndPass1Opts(p); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := stream.ReplayBatches(st, 0, fresh.Pass2AddBatch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := fresh.FinishOpts(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
			})
		}
	}

	{
		const n = 256
		g := graph.ConnectedGNP(n, 6.0/float64(n), benchSeed+67)
		st := stream.WithChurn(g, 4000, benchSeed+68)
		cfg := sparsify.EstimateConfig{K: 2, J: 3, T: 8, Delta: 0.34, Seed: benchSeed + 69}
		g0, err := sparsify.NewGrid(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.ReplayBatches(st, 0, g0.Pass1AddBatch); err != nil {
			b.Fatal(err)
		}
		blob, err := g0.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("sparsify/n%d/decode%d", n, w), func(b *testing.B) {
				p := parallel.Default().WithWorkers(w)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh := &sparsify.Grid{}
					if err := fresh.UnmarshalBinary(blob); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := fresh.EndPass1Opts(p); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := stream.ReplayBatches(st, 0, fresh.Pass2AddBatch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := fresh.FinishOpts(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
			})
		}
	}
}

// BenchmarkDistributedIngest measures the multi-process build path
// tracked in BENCH_ingest.json: updates/sec folding a churned dynamic
// stream into an AGM forest sketch across 1/2/4 protocol workers over
// unix sockets (in-process listeners speaking the full dynnet frame
// protocol — varint/CRC framing, compressed state blobs, shard
// streaming, and the coordinator merge). The result is asserted
// byte-identical to a local build once per worker count.
func BenchmarkDistributedIngest(b *testing.B) {
	reportHost(b)
	g := graph.ConnectedGNP(1000, 4.0/1000, benchSeed+50)
	st := stream.WithChurn(g, 50000, benchSeed+51)
	ctx := context.Background()
	local, err := Build(ctx, st, ForestTarget{Seed: benchSeed + 52})
	if err != nil {
		b.Fatal(err)
	}
	want, err := local.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "dynbench")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			addrs := make([]string, workers)
			for i := range addrs {
				addrs[i] = filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
				ln, err := net.Listen("unix", addrs[i])
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				go dynnet.ListenAndServeWorker(ctx, ln, dynnet.WorkerConfig{})
			}
			cluster, err := DialWorkers(ctx, addrs...)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			b.ResetTimer()
			var sk *ForestSketch
			for i := 0; i < b.N; i++ {
				sk, err = Build(ctx, st, ForestTarget{Seed: benchSeed + 52}, WithRemoteCluster(cluster))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			got, err := sk.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				b.Fatal("distributed state differs from local build")
			}
			b.ReportMetric(float64(st.Len()*b.N)/b.Elapsed().Seconds(), "updates/s")
			out, in := cluster.BytesOnWire()
			b.ReportMetric(float64(out+in)/float64(b.N), "wireB/op")
		})
	}
}

// BenchmarkParallelSpanner measures the end-to-end two-pass spanner
// with sharded concurrent passes at 1/2/4/8 workers.
func BenchmarkParallelSpanner(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.07, benchSeed+33)
	st := stream.WithChurn(g, 2*g.M(), benchSeed+34)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spanner.BuildTwoPassOpts(st,
					spanner.Config{K: 2, Seed: benchSeed + 35}, parallel.Default().WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA1Levels ablates the E_j level count in Algorithm 1.
func BenchmarkA1Levels(b *testing.B) {
	g := graph.ConnectedGNP(96, 0.1, benchSeed+21)
	st := stream.FromGraph(g, benchSeed+22)
	for _, levels := range []int{4, 15} {
		b.Run(map[bool]string{true: "levels4", false: "levels15"}[levels == 4], func(b *testing.B) {
			var res *spanner.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = spanner.BuildTwoPass(st, spanner.Config{
					K: 2, Levels: levels, Seed: benchSeed + 23 + uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
			}
			rep := verify.Stretch(g, res.Spanner, 8)
			b.ReportMetric(rep.MaxStretch, "maxStretch")
			b.ReportMetric(float64(rep.Disconnected), "disconnected")
		})
	}
}

// BenchmarkA2SketchBudget ablates IBLT load: decode success at exact
// capacity vs 3x overload.
func BenchmarkA2SketchBudget(b *testing.B) {
	for _, load := range []int{1, 3} {
		name := map[int]string{1: "load1x", 3: "load3x"}[load]
		b.Run(name, func(b *testing.B) {
			const capacity = 16
			ok := 0
			for i := 0; i < b.N; i++ {
				s := sketch.NewSketchB(benchSeed+24+uint64(i), capacity)
				rng := hashing.NewSplitMix64(uint64(i))
				items := load * capacity
				seen := map[uint64]bool{}
				for len(seen) < items {
					k := rng.Next() % 1000003
					if !seen[k] {
						seen[k] = true
						s.Add(k, 1)
					}
				}
				if got, decoded := s.Decode(); decoded && len(got) == items {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(b.N), "decodeRate")
		})
	}
}

// BenchmarkA3Oracles ablates ESTIMATE oracle kind: sketch vs exact.
func BenchmarkA3Oracles(b *testing.B) {
	g := graph.Complete(14)
	st := stream.FromGraph(g, benchSeed+25)
	for _, exact := range []bool{false, true} {
		name := map[bool]string{false: "sketch", true: "exact"}[exact]
		b.Run(name, func(b *testing.B) {
			var res *sparsify.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = sparsify.Sparsify(st, sparsify.Config{
					K: 1, Z: 16, Seed: benchSeed + 26 + uint64(i),
					Estimate: sparsify.EstimateConfig{
						K: 1, J: 3, T: 7, Delta: 0.34,
						Seed: benchSeed + 27 + uint64(i), ExactOracles: exact,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			eps, err := linalg.SpectralEpsilon(g, res.Sparsifier)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(eps, "spectralEps")
		})
	}
}

// BenchmarkIncrementalQuery measures the live-handle query path
// tracked in the `incremental` block of BENCH_ingest.json: with the
// decode caches on, a re-query after a small churn batch re-decodes
// only the components (or cluster regions) the batch touched, vs the
// cold full decode a cache-free build pays. Churn batches insert
// fresh random edges and delete previously inserted ones, so the
// graph stays near its base shape while every batch dirties ~pct% of
// the edge set. The apply itself is untimed ingest; the metric is
// queries/sec.
func BenchmarkIncrementalQuery(b *testing.B) {
	reportHost(b)
	churn := func(rng *rand.Rand, n, k int, extra *[][2]int, apply func(u, v, delta int)) {
		del := k / 2
		if del > len(*extra) {
			del = len(*extra)
		}
		for j := 0; j < del; j++ {
			i := rng.Intn(len(*extra))
			e := (*extra)[i]
			(*extra)[i] = (*extra)[len(*extra)-1]
			*extra = (*extra)[:len(*extra)-1]
			apply(e[0], e[1], -1)
		}
		for j := 0; j < k-del; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			apply(u, v, 1)
			*extra = append(*extra, [2]int{u, v})
		}
	}

	for _, n := range []int{1000, 10000} {
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+80)
		st := stream.WithChurn(g, n, benchSeed+81)
		m := g.M()

		cold := NewForestSketch(benchSeed+82, n, ForestConfig{})
		if err := st.Replay(func(u stream.Update) error { cold.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("forest/n%d/cold", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cold.SpanningForestOpts(nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})

		// Churn levels in basis points of m: the speedup over a cold
		// decode scales inversely with batch size, because bit-identity
		// forces re-decoding every component the batch touched in every
		// Borůvka round.
		for _, lvl := range []struct {
			name string
			bp   int
		}{{"churn0.05pct", 5}, {"churn0.1pct", 10}, {"churn1pct", 100}, {"churn10pct", 1000}} {
			live := NewForestSketch(benchSeed+82, n, ForestConfig{})
			live.EnableDecodeCache(true)
			if err := st.Replay(func(u stream.Update) error { live.AddUpdate(u); return nil }); err != nil {
				b.Fatal(err)
			}
			if _, err := live.SpanningForestOpts(nil, nil); err != nil { // warm
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(benchSeed + 83)))
			var extra [][2]int
			b.Run(fmt.Sprintf("forest/n%d/%s", n, lvl.name), func(b *testing.B) {
				k := m * lvl.bp / 10000
				if k < 2 {
					k = 2
				}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					churn(rng, n, k, &extra, func(u, v, delta int) { live.AddEdge(u, v, int64(delta)) })
					b.StartTimer()
					if _, err := live.SpanningForestOpts(nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}

	{
		const n = 1000
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+84)
		st := stream.WithChurn(g, n, benchSeed+85)
		m := g.M()
		p := parallel.Default()
		{
			tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: benchSeed + 86})
			tp.EnableDecodeCache(true)
			if err := tp.StartLive(st); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("spanner/n%d/cold", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tp.InvalidateDecodeCache()
					b.StartTimer()
					if _, err := tp.QueryLive(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
		for _, pct := range []int{1, 10} {
			tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: benchSeed + 86})
			tp.EnableDecodeCache(true)
			if err := tp.StartLive(st); err != nil {
				b.Fatal(err)
			}
			if _, err := tp.QueryLive(p); err != nil { // warm
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(benchSeed + 87)))
			var extra [][2]int
			b.Run(fmt.Sprintf("spanner/n%d/churn%dpct", n, pct), func(b *testing.B) {
				k := m * pct / 100
				if k < 2 {
					k = 2
				}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var batch []stream.Update
					churn(rng, n, k, &extra, func(u, v, delta int) {
						batch = append(batch, stream.Update{U: u, V: v, Delta: delta, W: 1})
					})
					if err := tp.ApplyLive(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := tp.QueryLive(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}
}
