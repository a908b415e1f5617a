package dynstream_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// Seeded Apply/Query interleaving matrix for live handles: after every
// applied batch, a handle's incremental, cache-served query must be
// bit-identical to a cold Build over the base stream plus every batch
// so far — for all seven targets, at 1/2/4/8 decode workers, over
// random and churned streams. `go test -race` doubles as the data-race
// gate for the dirty-subset decode fan-out.

const handleRounds = 4

// handleStream generates a churned stream and splits it into a base
// prefix (what Open ingests) and handleRounds apply batches. The full
// stream is a valid update sequence, and splitting preserves order, so
// every prefix the matrix rebuilds is valid too.
func handleStream(t *testing.T, seed uint64) (base *dynstream.MemoryStream, batches [][]dynstream.Update) {
	t.Helper()
	g := graph.ConnectedGNP(48, 0.12, seed)
	for i := 0; i < g.N(); i++ {
		g.AddEdge(i, (i+5)%g.N(), float64(1+i%6))
	}
	full := dynstream.StreamWithChurn(g, 300, seed+1)
	var ups []dynstream.Update
	if err := full.Replay(func(u dynstream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	cut := len(ups) / 2
	base = dynstream.NewMemoryStream(full.N())
	appendAll(t, base, ups[:cut])
	rest := ups[cut:]
	per := (len(rest) + handleRounds - 1) / handleRounds
	for i := 0; i < len(rest); i += per {
		end := i + per
		if end > len(rest) {
			end = len(rest)
		}
		batches = append(batches, rest[i:end])
	}
	return base, batches
}

func appendAll(t *testing.T, st *dynstream.MemoryStream, ups []dynstream.Update) {
	t.Helper()
	for _, u := range ups {
		if err := st.Append(u); err != nil {
			t.Fatal(err)
		}
	}
}

// cloneStream copies a MemoryStream so the cold-rebuild cumulative
// stream can grow without touching the handle's base stream.
func cloneStream(t *testing.T, st *dynstream.MemoryStream) *dynstream.MemoryStream {
	t.Helper()
	out := dynstream.NewMemoryStream(st.N())
	if err := st.Replay(func(u dynstream.Update) error { return out.Append(u) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// runHandleMatrix drives one target through the interleaving matrix:
// Open on the base stream, then per round Query (incremental) and diff
// against cold(cum) (a from-scratch rebuild over the cumulative
// stream), then Apply the next batch. The final round re-queries after
// Invalidate, proving a cold in-handle decode agrees too.
func runHandleMatrix[X any](
	t *testing.T, seed uint64, w int,
	open func(base *dynstream.MemoryStream) (apply func([]dynstream.Update) error, query func() (X, error), invalidate func(), err error),
	cold func(cum *dynstream.MemoryStream) (X, error),
	equal func(t *testing.T, round int, got, want X),
) {
	t.Helper()
	base, batches := handleStream(t, seed)
	apply, query, invalidate, err := open(base)
	if err != nil {
		t.Fatal(err)
	}
	cum := cloneStream(t, base)
	check := func(round int) {
		t.Helper()
		got, err := query()
		if err != nil {
			t.Fatalf("round %d: query: %v", round, err)
		}
		want, err := cold(cum)
		if err != nil {
			t.Fatalf("round %d: cold rebuild: %v", round, err)
		}
		equal(t, round, got, want)
		// Immediate re-query: the all-cache-hits path must reproduce
		// the same result.
		again, err := query()
		if err != nil {
			t.Fatalf("round %d: re-query: %v", round, err)
		}
		equal(t, round, again, want)
	}
	check(0)
	for i, b := range batches {
		if err := apply(b); err != nil {
			t.Fatalf("round %d: apply: %v", i+1, err)
		}
		appendAll(t, cum, b)
		check(i + 1)
	}
	// Dropping the caches must not change what a query returns.
	invalidate()
	check(len(batches))
}

// answerMatrix runs the interleaving matrix for one target over
// Answers: every round's incremental Query must render exactly what
// Decode of a cold Build over the cumulative stream renders. detail,
// when non-nil, keys result fields an Answer does not carry: on the
// live side it reads the handle's result through the QueryResult test
// hook and gets a w-worker policy, on the cold side it reads Build's
// result and gets a nil (serial) policy.
func answerMatrix[R any](t *testing.T, seed uint64, w int, target dynstream.Target[R], detail func(R, *parallel.Policy) string) {
	ctx := context.Background()
	key := func(a *dynstream.Answer, res R, p *parallel.Policy) string {
		k := dynstream.AnswerKey(a)
		if detail != nil {
			k += "\n" + detail(res, p)
		}
		return k
	}
	runHandleMatrix(t, seed, w,
		func(base *dynstream.MemoryStream) (func([]dynstream.Update) error, func() (string, error), func(), error) {
			h, err := dynstream.Open(ctx, base, target, dynstream.WithDecodeWorkers(w))
			if err != nil {
				return nil, nil, nil, err
			}
			query := func() (string, error) {
				a, err := h.Query(ctx)
				if err != nil {
					return "", err
				}
				var res R
				if detail != nil {
					raw, err := dynstream.QueryResult(ctx, h)
					if err != nil {
						return "", err
					}
					res = raw.(R)
				}
				return key(a, res, parallel.Default().WithWorkers(w)), nil
			}
			return h.Apply, query, h.Invalidate, nil
		},
		func(cum *dynstream.MemoryStream) (string, error) {
			res, err := dynstream.Build(ctx, cum, target)
			if err != nil {
				return "", err
			}
			a, err := dynstream.Decode(ctx, target, res)
			if err != nil {
				return "", err
			}
			return key(a, res, nil), nil
		},
		func(t *testing.T, round int, got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("round %d: incremental answer diverged from cold rebuild:\n got %s\nwant %s", round, got, want)
			}
		})
}

// The sketch details decode the sketch again at p and keep the
// decoder's own output — edge order included, which Answer.Graph
// canonicalizes away — so the matrices pin each decode's exact output
// at every worker count, as well as the rendered Answer.
func forestDetail(sk *dynstream.ForestSketch, p *parallel.Policy) string {
	return detailString(sk.SpanningForestOpts(nil, p))
}

func certDetail(kc *dynstream.KConnectivity, p *parallel.Policy) string {
	return detailString(kc.CertificateOpts(p))
}

func bipartiteDetail(b *dynstream.Bipartiteness, p *parallel.Policy) string {
	return detailString(b.IsBipartiteOpts(p))
}

func msfDetail(m *dynstream.MSF, p *parallel.Policy) string {
	return detailString(m.ForestOpts(p))
}

func detailString[T any](v T, err error) string {
	if err != nil {
		return "decode error: " + err.Error()
	}
	return fmt.Sprint(v)
}

func TestHandleForestMatrix(t *testing.T) {
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			answerMatrix(t, 8100, w, dynstream.ForestTarget{Seed: 8101}, forestDetail)
		})
	}
}

func TestHandleKConnectivityMatrix(t *testing.T) {
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			answerMatrix(t, 8200, w, dynstream.KConnectivityTarget{Seed: 8201, K: 3}, certDetail)
		})
	}
}

func TestHandleBipartitenessMatrix(t *testing.T) {
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			answerMatrix(t, 8300, w, dynstream.BipartitenessTarget{Seed: 8301}, bipartiteDetail)
		})
	}
}

func TestHandleMSFMatrix(t *testing.T) {
	// Live MSF needs an explicit WMax; handleStream weights are ≤ 6.
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			answerMatrix(t, 8400, w, dynstream.MSFTarget{Seed: 8401, WMax: 8, Gamma: 0.5}, msfDetail)
		})
	}
}

func TestHandleSpannerMatrix(t *testing.T) {
	target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{
		K: 3, Seed: 8501, CollectAugmented: true,
	}}
	// The Answer holds the spanner; the detail pins the augmented set,
	// the terminal count and the construction stats.
	detail := func(res *dynstream.SpannerResult, _ *parallel.Policy) string {
		return fmt.Sprintf("augmented %v terminals %d stats %+v", res.Augmented.Edges(), res.Terminals, res.Stats)
	}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			answerMatrix(t, 8500, w, target, detail)
		})
	}
}

func TestHandleAdditiveMatrix(t *testing.T) {
	target := dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 4, Seed: 8601}}
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			answerMatrix(t, 8600, w, target, nil)
		})
	}
}

func TestHandleSparsifierMatrix(t *testing.T) {
	ctx := context.Background()
	target := dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
		K: 1, Z: 4, Seed: 8701,
		Estimate: dynstream.EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 8702},
	}}
	// The sparsifier matrix grows a complete graph edge by edge: the
	// base stream is a prefix of the insertions and each batch extends
	// it, so every cold rebuild is a valid stream.
	g := graph.Complete(10)
	full := dynstream.StreamFromGraph(g, 8700)
	var ups []dynstream.Update
	if err := full.Replay(func(u dynstream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	cut := len(ups) * 3 / 5
	for _, w := range decodeWorkerCounts {
		t.Run(fmt.Sprintf("decode%d", w), func(t *testing.T) {
			base := dynstream.NewMemoryStream(full.N())
			appendAll(t, base, ups[:cut])
			h, err := dynstream.Open(ctx, base, target, dynstream.WithDecodeWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			cum := cloneStream(t, base)
			rest := ups[cut:]
			per := (len(rest) + 2) / 3
			for round := 0; ; round++ {
				got, err := h.Query(ctx)
				if err != nil {
					t.Fatalf("round %d: query: %v", round, err)
				}
				want, err := dynstream.BuildDecode(ctx, cum, target)
				if err != nil {
					t.Fatalf("round %d: cold rebuild: %v", round, err)
				}
				if g, w := dynstream.AnswerKey(got), dynstream.AnswerKey(want); g != w {
					t.Fatalf("round %d: sparsifier answer diverged from cold rebuild:\n got %s\nwant %s", round, g, w)
				}
				if len(rest) == 0 {
					break
				}
				end := per
				if end > len(rest) {
					end = len(rest)
				}
				if err := h.Apply(rest[:end]); err != nil {
					t.Fatalf("round %d: apply: %v", round, err)
				}
				appendAll(t, cum, rest[:end])
				rest = rest[end:]
			}
		})
	}
}

// TestHandleMergeDirtiesExactlyTouchedComponents pins the Merge
// invalidation contract: folding a shipped SKETCH blob into a live
// handle must bump generation counters on exactly the samplers the
// blob touched — so cached decodes of untouched components survive —
// while every query stays bit-identical to a cold build over the union
// of both streams.
func TestHandleMergeDirtiesExactlyTouchedComponents(t *testing.T) {
	ctx := context.Background()
	const n = 40
	target := dynstream.ForestTarget{Seed: 8801}

	// Shard A: a path over vertices 0..19. Shard B: a path over 20..39
	// plus one bridge edge {5, 30} — B touches the low half only at 5.
	a := dynstream.NewMemoryStream(n)
	for v := 1; v < 20; v++ {
		appendAll(t, a, []dynstream.Update{{U: v - 1, V: v, Delta: 1, W: 1}})
	}
	b := dynstream.NewMemoryStream(n)
	for v := 21; v < 40; v++ {
		appendAll(t, b, []dynstream.Update{{U: v - 1, V: v, Delta: 1, W: 1}})
	}
	appendAll(t, b, []dynstream.Update{{U: 5, V: 30, Delta: 1, W: 1}})

	h, err := dynstream.Open(ctx, a, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Query(ctx); err != nil { // warm the decode cache over shard A
		t.Fatal(err)
	}
	raw, err := dynstream.QueryResult(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	sk := raw.(*dynstream.ForestSketch) // the live sketch, for its generation counters
	untouched := make([]int, 0, 19)
	for v := 0; v < 20; v++ {
		if v != 5 {
			untouched = append(untouched, v)
		}
	}
	cleanGen := sk.GenSum(untouched...)
	touchedGen := sk.GenSum(5, 30)

	// Ship shard B the way dynnet does: build, marshal, unmarshal into
	// a fresh sketch, merge into the handle.
	bsk, err := dynstream.Build(ctx, b, target)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bsk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := dynstream.NewForestSketch(8801, n, dynstream.ForestConfig{})
	if err := fresh.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(fresh); err != nil {
		t.Fatal(err)
	}

	if got := sk.GenSum(untouched...); got != cleanGen {
		t.Fatalf("merge dirtied untouched samplers: GenSum %d, was %d", got, cleanGen)
	}
	if got := sk.GenSum(5, 30); got == touchedGen {
		t.Fatal("merge left touched samplers clean: stale cached decodes would survive")
	}

	// The post-merge query must match a cold build over A + B.
	union := cloneStream(t, a)
	if err := b.Replay(func(u dynstream.Update) error { return union.Append(u) }); err != nil {
		t.Fatal(err)
	}
	answersEqual(t, "post-merge forest vs cold union build", h, union, target)

	// And an Apply after the Merge keeps the handle exact.
	extra := []dynstream.Update{{U: 0, V: 39, Delta: 1, W: 1}}
	if err := h.Apply(extra); err != nil {
		t.Fatal(err)
	}
	appendAll(t, union, extra)
	answersEqual(t, "post-merge apply vs cold union build", h, union, target)
}

// answersEqual fails unless h's Query answers exactly what Decode of a
// cold Build over cum answers.
func answersEqual[R any](t *testing.T, what string, h *dynstream.Handle, cum *dynstream.MemoryStream, target dynstream.Target[R]) {
	t.Helper()
	ctx := context.Background()
	got, err := h.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dynstream.BuildDecode(ctx, cum, target)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := dynstream.AnswerKey(got), dynstream.AnswerKey(want); g != w {
		t.Fatalf("%s: answers differ:\n got %s\nwant %s", what, g, w)
	}
}

// TestHandleMergeRemoteBlob drives the dynnet coordinator path into a
// live handle: one shard is built on real protocol workers (worker
// SKETCH blobs tree-merged by the coordinator), the result is merged
// into a handle holding the other shard, and queries before and after
// another Apply must match cold builds over the whole stream.
func TestHandleMergeRemoteBlob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	target := dynstream.ForestTarget{Seed: 8901}
	full := remoteTestStream(t)
	shards, err := dynstream.SplitStream(full, 2)
	if err != nil {
		t.Fatal(err)
	}

	h, err := dynstream.Open(ctx, shards[0], target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Query(ctx); err != nil { // warm the cache pre-merge
		t.Fatal(err)
	}

	addrs := startWorkers(t, ctx, 2)
	cluster, err := dynstream.DialWorkers(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	remote, err := dynstream.Build(ctx, shards[1], target, dynstream.WithRemoteCluster(cluster))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(remote); err != nil {
		t.Fatal(err)
	}

	answersEqual(t, "handle + coordinator-built merge vs cold full build", h, full, target)
}

func TestOpenValidation(t *testing.T) {
	ctx := context.Background()
	st := dynstream.NewMemoryStream(8)
	forest := dynstream.ForestTarget{Seed: 1}

	if _, err := dynstream.Open(ctx, st, forest, dynstream.WithRemoteWorkers("unix:/nope")); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("remote option: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Open(ctx, st, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 1}},
		dynstream.WithWeightClasses(2)); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("weight classes: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Open(ctx, st, dynstream.MSFTarget{Seed: 1, Gamma: 0.5}); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("msf without WMax: got %v, want ErrBadConfig", err)
	}
	ch := make(chan dynstream.Update)
	close(ch)
	if _, err := dynstream.Open(ctx, dynstream.NewChannelSource(8, ch),
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 1}}); !errors.Is(err, dynstream.ErrNotReplayable) {
		t.Fatalf("spanner over channel: got %v, want ErrNotReplayable", err)
	}

	h, err := dynstream.Open(ctx, st, forest)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Apply([]dynstream.Update{{U: -1, V: 2, Delta: 1}}); err == nil {
		t.Fatal("Apply accepted an out-of-range update")
	}
	if err := h.Merge("not a sketch"); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("merge of wrong type: got %v, want ErrBadConfig", err)
	}

	sp, err := dynstream.Open(ctx, st, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Merge(dynstream.NewTwoPassSpanner(8, dynstream.SpannerConfig{K: 2, Seed: 1})); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Fatalf("two-pass merge: got %v, want ErrBadConfig", err)
	}
}

// TestHandleCacheOff checks WithDecodeCache(false): queries re-extract
// cold every time but stay identical to the cold rebuild.
func TestHandleCacheOff(t *testing.T) {
	ctx := context.Background()
	target := dynstream.ForestTarget{Seed: 9001}
	base, batches := handleStream(t, 9000)
	h, err := dynstream.Open(ctx, base, target, dynstream.WithDecodeCache(false))
	if err != nil {
		t.Fatal(err)
	}
	cum := cloneStream(t, base)
	for i, b := range batches {
		if err := h.Apply(b); err != nil {
			t.Fatal(err)
		}
		appendAll(t, cum, b)
		answersEqual(t, fmt.Sprintf("round %d: cache-off handle vs cold rebuild", i+1), h, cum, target)
	}
}
