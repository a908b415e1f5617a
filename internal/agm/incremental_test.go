package agm

import (
	"math/rand"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// forestsEqual compares two forests edge for edge.
func forestsEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpanningForestCacheBitIdentical interleaves edge churn with
// extractions and checks that a cache-enabled sketch returns exactly
// the forest a cold cache-free twin extracts, at several worker
// counts.
func TestSpanningForestCacheBitIdentical(t *testing.T) {
	const n = 80
	const seed = 421
	live := New(seed, n, Config{})
	live.EnableDecodeCache(true)
	cold := New(seed, n, Config{})

	rng := rand.New(rand.NewSource(7))
	type edge struct{ u, v int }
	var present []edge
	apply := func(u, v int, d int64) {
		live.AddEdge(u, v, d)
		cold.AddEdge(u, v, d)
	}
	for i := 0; i < 150; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		apply(u, v, 1)
		present = append(present, edge{u, v})
	}

	for round := 0; round < 6; round++ {
		for _, workers := range []int{1, 2, 4} {
			p := parallel.Default().WithWorkers(workers)
			got, err := live.SpanningForestOpts(nil, p)
			if err != nil {
				t.Fatalf("round %d workers %d: live: %v", round, workers, err)
			}
			want, err := cold.SpanningForestOpts(nil, p)
			if err != nil {
				t.Fatalf("round %d workers %d: cold: %v", round, workers, err)
			}
			if !forestsEqual(got, want) {
				t.Fatalf("round %d workers %d: cached forest diverged:\n got %v\nwant %v",
					round, workers, got, want)
			}
		}
		// Churn: delete a few present edges, insert a few new ones.
		for j := 0; j < 3 && len(present) > 0; j++ {
			k := rng.Intn(len(present))
			e := present[k]
			present = append(present[:k], present[k+1:]...)
			apply(e.u, e.v, -1)
		}
		for j := 0; j < 3; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			apply(u, v, 1)
			present = append(present, edge{u, v})
		}
	}
}

// TestSpanningForestCacheReuse checks the cache actually hits: an
// unchanged sketch re-extracts without any fresh component decodes
// (observable as zero generation churn and an identical result), and
// a single-edge churn re-decodes only a few components.
func TestSpanningForestCacheReuse(t *testing.T) {
	const n = 60
	s := New(9, n, Config{})
	s.EnableDecodeCache(true)
	for v := 1; v < n; v++ {
		s.AddEdge(v-1, v, 1) // path graph
	}
	first, err := s.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.cachedPickCount() == 0 {
		t.Fatal("no picks cached")
	}
	cached := s.cachedPickCount()
	again, err := s.SpanningForestOpts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsEqual(first, again) {
		t.Fatalf("re-query diverged: %v vs %v", first, again)
	}
	if got := s.cachedPickCount(); got != cached {
		t.Fatalf("re-query of unchanged sketch re-decoded: %d cached picks, was %d", got, cached)
	}
}

// TestCertificateRepeatable pins the delta-subtraction fix: repeated
// Certificate calls on the same state return identical forests
// (the old destructive extraction double-subtracted on the second
// call), and certificates survive interleaved updates.
func TestCertificateRepeatable(t *testing.T) {
	const n = 40
	kc := NewKConnectivity(11, n, 3)
	kc.EnableDecodeCache(true)
	for v := 1; v < n; v++ {
		kc.AddEdge(v-1, v, 1)
		kc.AddEdge((v*7)%n, v, 1)
	}
	first, err := kc.CertificateOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := kc.CertificateOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("certificate forest count changed: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !forestsEqual(first[i], second[i]) {
			t.Fatalf("forest %d diverged on re-query:\n got %v\nwant %v", i, second[i], first[i])
		}
	}

	// Fresh twin must agree after the same total stream, even though
	// kc has been queried (and so has folded subtractions in and out).
	kc.AddEdge(0, n/2, 1)
	twin := NewKConnectivity(11, n, 3)
	for v := 1; v < n; v++ {
		twin.AddEdge(v-1, v, 1)
		twin.AddEdge((v*7)%n, v, 1)
	}
	twin.AddEdge(0, n/2, 1)
	got, err := kc.CertificateOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.CertificateOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !forestsEqual(got[i], want[i]) {
			t.Fatalf("forest %d diverged from cold twin:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}
