package dynstream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// Checkpoint/restore matrix: for every target, a handle that is
// checkpointed mid-stream, "crashed", restored, and fed the exact
// suffix its AppliedUpdates() names must be indistinguishable from a
// handle that never crashed — its queries bit-identical, and even its
// next checkpoint byte-identical.

// runCheckpointMatrix drives one target through checkpoint → crash →
// restore → replay-suffix and diffs the restored handle's Answer
// against the uninterrupted one's and a cold build's. detail, when
// non-nil, keys result fields an Answer does not carry (read through
// the QueryResult test hook on the handles and decoded serially).
func runCheckpointMatrix[R any](
	t *testing.T, base *dynstream.MemoryStream, batches [][]dynstream.Update,
	target dynstream.Target[R], detail func(R, *parallel.Policy) string,
) {
	t.Helper()
	ctx := context.Background()
	h1, err := dynstream.Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	// The flat apply log a real caller would keep on disk; the restored
	// handle's AppliedUpdates() is an offset into it.
	var log []dynstream.Update
	for _, b := range batches {
		log = append(log, b...)
	}
	// Apply a prefix, snapshot mid-stream.
	cut := (len(batches) + 1) / 2
	for _, b := range batches[:cut] {
		if err := h1.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := h1.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// The uninterrupted handle keeps going.
	for _, b := range batches[cut:] {
		if err := h1.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: h1's in-memory state is gone; only snap and the log
	// survive. Restore and replay the suffix AppliedUpdates() names.
	h2, err := dynstream.Restore(ctx, bytes.NewReader(snap.Bytes()), base, target)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	off := h2.AppliedUpdates()
	if off <= 0 || off >= int64(len(log)) {
		t.Fatalf("restored AppliedUpdates() = %d, want a mid-log offset in (0, %d)", off, len(log))
	}
	if err := h2.Apply(log[off:]); err != nil {
		t.Fatalf("replay suffix: %v", err)
	}
	if got, want := h2.AppliedUpdates(), int64(len(log)); got != want {
		t.Fatalf("after replay AppliedUpdates() = %d, want %d", got, want)
	}
	// key renders an answer plus the detail of its result.
	key := func(a *dynstream.Answer, res func() (any, error)) string {
		t.Helper()
		k := dynstream.AnswerKey(a)
		if detail != nil {
			r, err := res()
			if err != nil {
				t.Fatal(err)
			}
			k += "\n" + detail(r.(R), nil)
		}
		return k
	}
	// The restored handle must answer bit-identically...
	got, err := h2.Query(ctx)
	if err != nil {
		t.Fatalf("restored query: %v", err)
	}
	want, err := h1.Query(ctx)
	if err != nil {
		t.Fatalf("uninterrupted query: %v", err)
	}
	gotKey := key(got, func() (any, error) { return dynstream.QueryResult(ctx, h2) })
	if wantKey := key(want, func() (any, error) { return dynstream.QueryResult(ctx, h1) }); gotKey != wantKey || got.Applied != want.Applied {
		t.Fatalf("restored answer diverged:\n got %s (applied %d)\nwant %s (applied %d)", gotKey, got.Applied, wantKey, want.Applied)
	}
	// ...agree with a cold build over base+log...
	cum := cloneStream(t, base)
	appendAll(t, cum, log)
	res, err := dynstream.Build(ctx, cum, target)
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	cold, err := dynstream.Decode(ctx, target, res)
	if err != nil {
		t.Fatalf("cold decode: %v", err)
	}
	if coldKey := key(cold, func() (any, error) { return res, nil }); gotKey != coldKey {
		t.Fatalf("restored answer diverged from cold build:\n got %s\nwant %s", gotKey, coldKey)
	}
	// ...and produce a byte-identical next checkpoint: the crash left
	// no trace in the state itself.
	var ck1, ck2 bytes.Buffer
	if err := h1.Checkpoint(&ck1); err != nil {
		t.Fatal(err)
	}
	if err := h2.Checkpoint(&ck2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck1.Bytes(), ck2.Bytes()) {
		t.Fatalf("checkpoints diverge after replay: %d vs %d bytes", ck1.Len(), ck2.Len())
	}
}

func TestCheckpointRestoreForest(t *testing.T) {
	base, batches := handleStream(t, 9100)
	runCheckpointMatrix(t, base, batches, dynstream.ForestTarget{Seed: 9101}, forestDetail)
}

func TestCheckpointRestoreKConnectivity(t *testing.T) {
	base, batches := handleStream(t, 9200)
	runCheckpointMatrix(t, base, batches, dynstream.KConnectivityTarget{Seed: 9201, K: 3}, certDetail)
}

func TestCheckpointRestoreBipartiteness(t *testing.T) {
	base, batches := handleStream(t, 9300)
	runCheckpointMatrix(t, base, batches, dynstream.BipartitenessTarget{Seed: 9301}, bipartiteDetail)
}

func TestCheckpointRestoreMSF(t *testing.T) {
	base, batches := handleStream(t, 9400)
	runCheckpointMatrix(t, base, batches, dynstream.MSFTarget{Seed: 9401, WMax: 8, Gamma: 0.5}, msfDetail)
}

func TestCheckpointRestoreAdditive(t *testing.T) {
	base, batches := handleStream(t, 9500)
	runCheckpointMatrix(t, base, batches,
		dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 4, Seed: 9501}}, nil)
}

func TestCheckpointRestoreSpanner(t *testing.T) {
	base, batches := handleStream(t, 9600)
	runCheckpointMatrix(t, base, batches,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 3, Seed: 9601, CollectAugmented: true}},
		func(res *dynstream.SpannerResult, _ *parallel.Policy) string {
			return fmt.Sprintf("augmented %v terminals %d stats %+v", res.Augmented.Edges(), res.Terminals, res.Stats)
		})
}

func TestCheckpointRestoreSparsifier(t *testing.T) {
	// Insert-only complete-graph stream, like the sparsifier handle
	// matrix: small n keeps the grid extraction cheap.
	target := dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
		K: 1, Z: 4, Seed: 9701,
		Estimate: dynstream.EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 9702},
	}}
	g := graph.Complete(10)
	full := dynstream.StreamFromGraph(g, 9700)
	var ups []dynstream.Update
	if err := full.Replay(func(u dynstream.Update) error { ups = append(ups, u); return nil }); err != nil {
		t.Fatal(err)
	}
	cut := len(ups) * 3 / 5
	base := dynstream.NewMemoryStream(full.N())
	appendAll(t, base, ups[:cut])
	rest := ups[cut:]
	per := (len(rest) + 3) / 4
	var batches [][]dynstream.Update
	for i := 0; i < len(rest); i += per {
		end := i + per
		if end > len(rest) {
			end = len(rest)
		}
		batches = append(batches, rest[i:end])
	}
	runCheckpointMatrix(t, base, batches, target, nil)
}

// TestCheckpointRejectsDamage pins the failure modes: every corrupt,
// truncated, mistyped, or mismatched snapshot must surface
// ErrBadCheckpoint — never a silent wrong restore.
func TestCheckpointRejectsDamage(t *testing.T) {
	ctx := context.Background()
	base, batches := handleStream(t, 9800)
	target := dynstream.ForestTarget{Seed: 9801}
	h, err := dynstream.Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := h.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	restoreForest := func(data []byte, src dynstream.Source) error {
		_, err := dynstream.Restore(ctx, bytes.NewReader(data), src, target)
		return err
	}
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if err := restoreForest(bad, base); !errors.Is(err, dynstream.ErrBadCheckpoint) {
			t.Fatalf("got %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		// Flip a spread of byte positions (every position would be
		// quadratic in the snapshot size); each single-byte corruption
		// must be caught — by the magic check or a section CRC.
		step := len(good) / 64
		if step < 1 {
			step = 1
		}
		positions := []int{len(good) - 1, len(good) - 3}
		for i := 0; i < len(good); i += step {
			positions = append(positions, i)
		}
		for _, i := range positions {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x20
			if err := restoreForest(bad, base); !errors.Is(err, dynstream.ErrBadCheckpoint) {
				t.Fatalf("flip at byte %d: got %v, want ErrBadCheckpoint", i, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, len(good) / 2, len(good) - 1} {
			if err := restoreForest(good[:cut], base); !errors.Is(err, dynstream.ErrBadCheckpoint) {
				t.Fatalf("truncation at %d: got %v, want ErrBadCheckpoint", cut, err)
			}
		}
	})
	t.Run("wrong target", func(t *testing.T) {
		_, err := dynstream.Restore(ctx, bytes.NewReader(good), base,
			dynstream.BipartitenessTarget{Seed: 9801})
		if !errors.Is(err, dynstream.ErrBadCheckpoint) {
			t.Fatalf("got %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("wrong n", func(t *testing.T) {
		other := dynstream.NewMemoryStream(base.N() + 1)
		if err := restoreForest(good, other); !errors.Is(err, dynstream.ErrBadCheckpoint) {
			t.Fatalf("got %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("remote rejected", func(t *testing.T) {
		_, err := dynstream.Restore(ctx, bytes.NewReader(good), base, target,
			dynstream.WithRemoteWorkers("127.0.0.1:1"))
		if !errors.Is(err, dynstream.ErrBadConfig) {
			t.Fatalf("got %v, want ErrBadConfig", err)
		}
	})
}

// TestCheckpointConcurrentWithApply is the torn-batch gate: one
// goroutine Applies fixed-size batches while others Query and
// Checkpoint the same handle. Checkpoint holds the handle's mutex, so
// every snapshot must contain a whole number of batches — restoring it
// must land exactly on a batch boundary and decode bit-identically to
// a cold build over that prefix. Run under -race this doubles as the
// data-race gate for Checkpoint.
func TestCheckpointConcurrentWithApply(t *testing.T) {
	ctx := context.Background()
	const n = 64
	const batchSize = 7
	target := dynstream.ForestTarget{Seed: 9901}
	// A growing path: edge i connects (i, i+1), applied in batches of
	// batchSize.
	var log []dynstream.Update
	for i := 0; i < n-1; i++ {
		log = append(log, dynstream.Update{U: i, V: i + 1, Delta: 1, W: 1})
	}
	log = log[:(len(log)/batchSize)*batchSize]
	base := dynstream.NewMemoryStream(n)
	h, err := dynstream.Open(ctx, base, target)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() { // checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := h.Checkpoint(&buf); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
			snaps = append(snaps, buf.Bytes())
			time.Sleep(200 * time.Microsecond) // bound the snapshot count
		}
	}()
	go func() { // querier
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := h.Query(ctx); err != nil {
				t.Errorf("concurrent query: %v", err)
				return
			}
		}
	}()
	for i := 0; i < len(log); i += batchSize {
		if err := h.Apply(log[i : i+batchSize]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let snapshots land between batches
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(snaps) > 32 { // bound the validation cost
		sampled := make([][]byte, 0, 32)
		for i := 0; i < 32; i++ {
			sampled = append(sampled, snaps[i*len(snaps)/32])
		}
		snaps = sampled
	}
	// Every snapshot must be a consistent cut: a whole number of
	// batches, decoding exactly as a cold build over that prefix.
	for i, snap := range snaps {
		h2, err := dynstream.Restore(ctx, bytes.NewReader(snap), base, target)
		if err != nil {
			t.Fatalf("snapshot %d: restore: %v", i, err)
		}
		off := h2.AppliedUpdates()
		if off%batchSize != 0 {
			t.Fatalf("snapshot %d: applied %d updates, not a multiple of the batch size %d (torn batch)", i, off, batchSize)
		}
		got, err := h2.Query(ctx)
		if err != nil {
			t.Fatalf("snapshot %d: query: %v", i, err)
		}
		prefix := dynstream.NewMemoryStream(n)
		appendAll(t, prefix, log[:off])
		res, err := dynstream.Build(ctx, prefix, target)
		if err != nil {
			t.Fatalf("snapshot %d: cold build: %v", i, err)
		}
		want, err := dynstream.Decode(ctx, target, res)
		if err != nil {
			t.Fatalf("snapshot %d: cold decode: %v", i, err)
		}
		raw, err := dynstream.QueryResult(ctx, h2)
		if err != nil {
			t.Fatalf("snapshot %d: query result: %v", i, err)
		}
		if dynstream.AnswerKey(got) != dynstream.AnswerKey(want) ||
			forestDetail(raw.(*dynstream.ForestSketch), nil) != forestDetail(res, nil) {
			t.Fatalf("snapshot %d (applied=%d): restored forest diverged from cold build", i, off)
		}
	}
	if testing.Verbose() {
		fmt.Printf("validated %d concurrent snapshots\n", len(snaps))
	}
}
