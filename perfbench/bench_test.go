package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"dynstream/internal/graph"
	"dynstream/internal/serve"
	"dynstream/internal/stream"
)

func TestCheckForestRejectsPlantedErrors(t *testing.T) {
	tri := newEdgeSet(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		tri.edges[tri.key(e[0], e[1])] = struct{}{}
	}
	if err := checkForest(tri, [][2]int{{0, 1}, {1, 2}, {2, 3}}); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	cases := map[string][][2]int{
		"missing edge":      {{0, 1}, {1, 2}},
		"cycle":             {{0, 1}, {1, 2}, {0, 2}, {2, 3}},
		"edge not in graph": {{0, 1}, {1, 2}, {1, 3}},
	}
	for name, forest := range cases {
		if err := checkForest(tri, forest); err == nil {
			t.Errorf("%s: planted error accepted", name)
		}
	}
}

func TestCheckSpannerRejectsPlantedErrors(t *testing.T) {
	const n = 16
	g := graph.Cycle(n)
	if err := checkSpanner(g, g.Clone(), 2); err != nil {
		t.Fatalf("the graph itself rejected as its own spanner: %v", err)
	}
	// Dropping one cycle edge stretches its endpoints' distance from 1
	// to n-1 > 2^2.
	h := g.Clone()
	h.RemoveEdge(0, n-1)
	if err := checkSpanner(g, h, 2); err == nil {
		t.Error("stretch violation accepted")
	}
	h = g.Clone()
	h.AddUnitEdge(0, n/2)
	if err := checkSpanner(g, h, 2); err == nil {
		t.Error("edge outside the graph accepted")
	}
}

func TestCheckServedRejectsShiftedApplied(t *testing.T) {
	log := []stream.Update{
		{U: 0, V: 1, Delta: 1, W: 1},
		{U: 1, V: 2, Delta: 1, W: 1},
		{U: 2, V: 3, Delta: 1, W: 1},
		{U: 1, V: 2, Delta: -1, W: 1},
	}
	resp := func(applied int64, edges ...[2]int) *serve.QueryResponse {
		q := &serve.QueryResponse{Applied: applied, Components: 4 - len(edges)}
		for _, e := range edges {
			q.Edges = append(q.Edges, serve.EdgeJSON{U: e[0], V: e[1], W: 1})
		}
		return q
	}
	good := []*serve.QueryResponse{
		resp(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}),
		resp(1, [2]int{0, 1}),
		resp(4, [2]int{0, 1}, [2]int{2, 3}),
	}
	for i, err := range checkServed(4, log, good) {
		if err != nil {
			t.Fatalf("valid query %d rejected: %v", i, err)
		}
	}
	shifted := []*serve.QueryResponse{
		resp(2, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), // answer of prefix 3
		resp(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), // answer of prefix 3
		resp(5, [2]int{0, 1}, [2]int{2, 3}),               // beyond the log
	}
	for i, err := range checkServed(4, log, shifted) {
		if err == nil {
			t.Errorf("shifted applied label %d accepted", i)
		}
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	a, err := genOffline(500, 8, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genOffline(500, 8, 1000, 42)
	c, _ := genOffline(500, 8, 1000, 43)
	if !bytes.Equal(a.bin, b.bin) {
		t.Error("same seed, different offline streams")
	}
	if bytes.Equal(a.bin, c.bin) {
		t.Error("different seeds, same offline stream")
	}

	s1, err := genServe(42, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := genServe(42, 4, 6)
	s3, _ := genServe(43, 4, 6)
	if len(s1.bodies) != 10 || s1.sat != 4 {
		t.Fatalf("got %d batches (%d saturation), want 10 (4)", len(s1.bodies), s1.sat)
	}
	for i := range s1.bodies {
		if !bytes.Equal(s1.bodies[i], s2.bodies[i]) || s1.due(i) != s2.due(i) {
			t.Fatalf("same seed, batch %d or its due time differs", i)
		}
	}
	if bytes.Equal(s1.bodies[0], s3.bodies[0]) {
		t.Error("different seeds, same first batch")
	}
	if gap := s1.due(3) - s1.due(2); gap*serveRate != serveBatch*time.Second {
		t.Errorf("schedule spacing %v does not give %d upd/s", gap, serveRate)
	}
	// Every live update is valid against the graph its prefix builds.
	cur := newEdgeSet(s1.n)
	for _, u := range append(append([]stream.Update(nil), s1.prefill...), s1.live...) {
		if err := cur.apply(u); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) reported")
	}
	if v, err := percentile(append(xs, 99), 90); err != nil || v != 89 {
		t.Errorf("p90 of 100 samples = %v, %v; want 89", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples (9 beyond) reported")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 9 {
		t.Errorf("p50 of 20 samples = %v, %v; want 9", v, err)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarked, ",") {
		t.Errorf("workloads %v, benchmark lists %v", names, benchmarked)
	}
}
