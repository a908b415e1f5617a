package dynstream_test

import (
	"context"
	"fmt"
	"strings"

	"dynstream"
)

// Example_build shows the unified front door: one options-driven
// Build call runs any sketch over any source under any execution
// policy. Here a text stream is parsed on the fly by a ReaderSource
// (no materialization) and ingested into the two-pass spanner by two
// workers — by linearity the result is identical to a serial run.
func Example_build() {
	input := `n 5
+ 0 1
+ 1 2
+ 2 3
+ 3 4
+ 0 4
+ 0 2
- 0 2
`
	src, err := dynstream.NewReaderSource(strings.NewReader(input))
	if err != nil {
		panic(err)
	}
	res, err := dynstream.Build(context.Background(), src,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2}},
		dynstream.WithSeed(7),
		dynstream.WithWorkers(2),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("spanner has deleted chord:", res.Spanner.HasEdge(0, 2))
	fmt.Println("spanner connected:", res.Spanner.Connected())
	// Output:
	// spanner has deleted chord: false
	// spanner connected: true
}

// ExampleWithDecodeWorkers separates the two worker knobs: WithWorkers
// governs ingest (and, by default, decode), while WithDecodeWorkers
// overrides the extraction phase — Borůvka rounds, cluster
// construction, table peeling — on its own. Decode parallelism never
// changes the output: results are placed by index and applied in the
// serial order, so the spanner below is bit-identical at any worker
// combination.
func ExampleWithDecodeWorkers() {
	g := dynstream.NewGraph(64)
	for i := 0; i < 64; i++ {
		g.AddUnitEdge(i, (i+1)%64)
		g.AddUnitEdge(i, (i+9)%64)
	}
	st := dynstream.StreamFromGraph(g, 3)

	serial, err := dynstream.Build(context.Background(), st,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 7}},
		dynstream.WithWorkers(1))
	if err != nil {
		panic(err)
	}
	parallel, err := dynstream.Build(context.Background(), st,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 7}},
		dynstream.WithWorkers(2),       // sharded ingest
		dynstream.WithDecodeWorkers(4), // concurrent extraction
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("same spanner:", parallel.Spanner.M() == serial.Spanner.M())
	fmt.Println("connected:", parallel.Spanner.Connected())
	// Output:
	// same spanner: true
	// connected: true
}

// ExampleBuild_spanner builds a 4-spanner of a small graph delivered
// as a dynamic stream with a deletion.
func ExampleBuild_spanner() {
	st := dynstream.NewMemoryStream(5)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}
	for _, e := range edges {
		_ = st.Append(dynstream.Update{U: e[0], V: e[1], Delta: 1})
	}
	// Insert then delete a chord: it must not appear in the spanner.
	_ = st.Append(dynstream.Update{U: 0, V: 2, Delta: 1})
	_ = st.Append(dynstream.Update{U: 0, V: 2, Delta: -1})

	res, err := dynstream.Build(context.Background(), st,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 7}})
	if err != nil {
		panic(err)
	}
	fmt.Println("spanner has deleted chord:", res.Spanner.HasEdge(0, 2))
	fmt.Println("spanner connected:", res.Spanner.Connected())
	// Output:
	// spanner has deleted chord: false
	// spanner connected: true
}

// ExampleNewForestSketch extracts a spanning forest from a linear
// sketch after deletions.
func ExampleNewForestSketch() {
	const n = 4
	fs := dynstream.NewForestSketch(3, n, dynstream.ForestConfig{})
	fs.AddEdge(0, 1, 1)
	fs.AddEdge(1, 2, 1)
	fs.AddEdge(2, 3, 1)
	fs.AddEdge(0, 3, 1)
	fs.AddEdge(0, 3, -1) // delete the cycle-closing edge

	forest, err := fs.SpanningForestOpts(nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("forest edges:", len(forest))
	// Output:
	// forest edges: 3
}

// ExampleNewBipartiteness decides bipartiteness from sketches alone.
func ExampleNewBipartiteness() {
	const n = 5
	b := dynstream.NewBipartiteness(11, n)
	// A 5-cycle (odd): not bipartite.
	for i := 0; i < n; i++ {
		b.AddUpdate(dynstream.Update{U: i, V: (i + 1) % n, Delta: 1})
	}
	bip, err := b.IsBipartiteOpts(nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("odd cycle bipartite:", bip)
	// Output:
	// odd cycle bipartite: false
}

// ExampleHandle_query keeps a build live: Open ingests the base
// stream, then Apply folds further updates into the sketch state and
// each Query decodes a fresh Answer — served from the decode caches,
// re-decoding only the components the applied updates touched, and
// bit-identical to a cold Build over the whole stream so far. An Answer
// is a value: the first one still describes the base stream after the
// Apply.
func ExampleHandle_query() {
	ctx := context.Background()
	base := dynstream.NewMemoryStream(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := base.Append(dynstream.Update{U: e[0], V: e[1], Delta: 1, W: 1}); err != nil {
			panic(err)
		}
	}

	h, err := dynstream.Open(ctx, base, dynstream.ForestTarget{Seed: 7})
	if err != nil {
		panic(err)
	}
	before, err := h.Query(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("forest edges:", before.Graph.M())

	// Bridge the components — and delete an original edge — live.
	err = h.Apply([]dynstream.Update{
		{U: 2, V: 3, Delta: 1, W: 1},
		{U: 4, V: 5, Delta: 1, W: 1},
		{U: 1, V: 2, Delta: -1, W: 1},
	})
	if err != nil {
		panic(err)
	}
	after, err := h.Query(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("after apply:", after.Graph.M())
	// Output:
	// forest edges: 3
	// after apply: 4
}

// ExampleWithTracer attaches a tracer to a build and reads its phase
// aggregates back. Tracing is purely observational — the traced result
// is bit-identical to an untraced build — and the same tracer feeds
// the human-readable timeline (WriteTimeline) and the Perfetto-loadable
// Chrome sink (EnableEvents + WriteChromeTrace, or WithTraceFile).
func ExampleWithTracer() {
	input := `n 5
+ 0 1
+ 1 2
+ 2 3
+ 3 4
+ 0 4
`
	src, err := dynstream.NewReaderSource(strings.NewReader(input))
	if err != nil {
		panic(err)
	}
	tr := dynstream.NewTracer()
	_, err = dynstream.Build(context.Background(), src,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2}},
		dynstream.WithSeed(7),
		dynstream.WithTracer(tr),
	)
	if err != nil {
		panic(err)
	}
	for _, ph := range tr.Phases() {
		fmt.Printf("%s x%d\n", ph.Phase, ph.Count)
	}
	fmt.Println("updates ingested:", tr.IngestedTotal())
	// Output:
	// ingest x2
	// spanner/cluster/level00 x1
	// spanner/recover x1
	// updates ingested: 10
}
