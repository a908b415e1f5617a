package dynstream_test

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"dynstream"
)

// TestIncrementalSmokeLarge is the CI incremental-smoke canary: a
// two-pass spanner handle is opened over a ~1M-update churn stream,
// then 100 interleaved Apply/Query rounds run against it, and the
// final incremental result is diffed against a cold Build over the
// concatenated stream — which must match edge for edge (the
// per-round queries exercise the decode caches; the final diff proves
// none of them ever served a stale entry). Gated behind an env var:
// it replays ~1M updates twice and runs 101 spanner extractions.
func TestIncrementalSmokeLarge(t *testing.T) {
	if os.Getenv("DYNSTREAM_INCR_SMOKE") == "" {
		t.Skip("set DYNSTREAM_INCR_SMOKE=1 to run the 1M-update incremental smoke")
	}
	const (
		n         = 2000
		baseOps   = 1_000_000
		rounds    = 100
		batchSize = 40
		// Above this many live edges the generator prefers deletions, so
		// the stream is churn-heavy (most inserts die later) and the
		// graph stays sparse enough that each extraction is fast.
		targetM = 8 * n
	)
	ctx := context.Background()
	target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 9901}}

	rng := rand.New(rand.NewSource(9902))
	var present [][2]int
	onWire := map[[2]int]bool{}
	genUpdate := func() dynstream.Update {
		for {
			del := len(present) > 0 && (len(present) > targetM || rng.Intn(2) == 0)
			if del {
				i := rng.Intn(len(present))
				e := present[i]
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
				delete(onWire, e)
				return dynstream.Update{U: e[0], V: e[1], Delta: -1, W: 1}
			}
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if onWire[[2]int{u, v}] {
				continue
			}
			onWire[[2]int{u, v}] = true
			present = append(present, [2]int{u, v})
			return dynstream.Update{U: u, V: v, Delta: 1, W: 1}
		}
	}

	base := dynstream.NewMemoryStream(n)
	cum := dynstream.NewMemoryStream(n)
	for i := 0; i < baseOps; i++ {
		u := genUpdate()
		if err := base.Append(u); err != nil {
			t.Fatal(err)
		}
		if err := cum.Append(u); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	h, err := dynstream.Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("opened handle over %d updates in %v", baseOps, time.Since(start))

	var live *dynstream.Answer
	qStart := time.Now()
	for round := 0; round < rounds; round++ {
		batch := make([]dynstream.Update, batchSize)
		for j := range batch {
			batch[j] = genUpdate()
			if err := cum.Append(batch[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Apply(batch); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		if live, err = h.Query(ctx); err != nil {
			t.Fatalf("round %d: Query: %v", round, err)
		}
	}
	t.Logf("%d Apply/Query rounds in %v (%v/round)",
		rounds, time.Since(qStart), time.Since(qStart)/rounds)

	cStart := time.Now()
	cold, err := dynstream.Build(ctx, cum, target)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold rebuild in %v", time.Since(cStart))

	coldAnswer, err := dynstream.Decode(ctx, target, cold)
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, "final spanner", live.Graph, coldAnswer.Graph)
	if dynstream.AnswerKey(live) != dynstream.AnswerKey(coldAnswer) {
		t.Fatalf("final answers differ: %q vs %q", live.Summary, coldAnswer.Summary)
	}
	raw, err := dynstream.QueryResult(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if res := raw.(*dynstream.SpannerResult); res.Terminals != cold.Terminals || !reflect.DeepEqual(res.Stats, cold.Stats) {
		t.Fatalf("final stats differ: %+v vs %+v", res.Stats, cold.Stats)
	}
}
