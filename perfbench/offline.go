package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
)

// Before each timed build an offline run opens its source setupBatch
// times untimed, then times setupReps batches of setupBatch opens;
// setup_s is the median over all the run's batches of the time per
// open. One open takes microseconds, close to the clock's resolution on
// a virtual machine, so opens are timed in batches, and the batches are
// spread over the run so that a short burst of load on the host does not
// set the figure.
const (
	setupBatch = 500
	setupReps  = 3
)

// offlineSpec describes one offline workload: a build of a generated
// binary stream through a ReaderSource, ending in rendered edge lines.
type offlineSpec struct {
	gen      func(seed uint64) (*offlineInput, error)
	seekable bool // seekable in-memory source (two passes) vs pipe
	passes   int
	// build runs Build (plus the post-build decode, if any) and returns
	// the result graph; tr is nil in untraced runs.
	build func(ctx context.Context, src dynstream.Source, seed uint64, tr *obs.Tracer) (*graph.Graph, int, error)
	// check verifies the first answer of a run against the input.
	check func(in *offlineInput, h *graph.Graph) error
}

var pipeForest = offlineSpec{
	gen: func(seed uint64) (*offlineInput, error) {
		return genOffline(forestN, forestDeg, forestChurn, seed)
	},
	passes: 1,
	build: func(ctx context.Context, src dynstream.Source, seed uint64, tr *obs.Tracer) (*graph.Graph, int, error) {
		sk, err := dynstream.Build(ctx, src, dynstream.ForestTarget{Seed: seed},
			dynstream.WithWorkers(2), dynstream.WithTracer(tr))
		if err != nil {
			return nil, 0, err
		}
		sp := tr.Span("bench/decode")
		forest, err := sk.SpanningForestOpts(nil, parallel.Default().WithWorkers(2).WithTracer(tr))
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		g := graph.New(src.N())
		for _, e := range forest {
			g.AddUnitEdge(e.U, e.V)
		}
		return g, sk.SpaceWords(), nil
	},
	check: func(in *offlineInput, h *graph.Graph) error {
		return checkForest(edgeSetOf(in.final), forestPairs(h))
	},
}

var twopassSpanner = offlineSpec{
	gen: func(seed uint64) (*offlineInput, error) {
		return genOffline(spannerN, spannerDeg, spannerChurn, seed)
	},
	seekable: true,
	passes:   2,
	build: func(ctx context.Context, src dynstream.Source, seed uint64, tr *obs.Tracer) (*graph.Graph, int, error) {
		res, err := dynstream.Build(ctx, src,
			dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: spannerK, Seed: seed}},
			dynstream.WithWorkers(1), dynstream.WithTracer(tr))
		if err != nil {
			return nil, 0, err
		}
		return res.Spanner, res.SpaceWords, nil
	},
	check: func(in *offlineInput, h *graph.Graph) error {
		return checkSpanner(in.final, h, spannerK)
	},
}

// offlineBuild is one measured build.
type offlineBuild struct {
	rd    *timedReader
	out   []byte
	words int
	start time.Time // first byte read
	end   time.Time // last line rendered
}

func (b *offlineBuild) wall() time.Duration { return b.end.Sub(b.start) }

// runBuild opens a fresh source over the input (the set-up) and builds
// it to rendered lines.
func (spec *offlineSpec) runBuild(ctx context.Context, in *offlineInput, seed uint64, tr *obs.Tracer) (*offlineBuild, error) {
	b := &offlineBuild{}
	var r io.Reader
	b.rd, r = spec.reader(in)
	sp := tr.Span("bench/open")
	src, err := dynstream.NewReaderSource(r)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("open source: %w", err)
	}
	h, words, err := spec.build(ctx, src, seed, tr)
	if err != nil {
		return nil, err
	}
	sp = tr.Span("bench/render")
	b.out = render(h)
	sp.End()
	b.end = time.Now()
	b.start = b.rd.firstRead()
	b.words = words
	return b, nil
}

// binRecordSize is the binary wire format's bytes per update record.
const binRecordSize = 20

// reader returns a fresh timed reader over the input's bytes, handing
// the program one 500-update batch per read, and the reader the
// program gets: a pipe, or a seekable source for multi-pass targets.
func (spec *offlineSpec) reader(in *offlineInput) (*timedReader, io.Reader) {
	rd := newTimedReader(in.bin, serveBatch*binRecordSize)
	if spec.seekable {
		return rd, seekableReader{rd}
	}
	return rd, rd
}

// openSetups times source opens over the input once opening has reached
// a steady state (a batch of warm-up opens first, so the figure is not
// one allocation's page faults) and returns the time per open of each
// timed batch.
func (spec *offlineSpec) openSetups(in *offlineInput) ([]float64, error) {
	var out []float64
	for rep := 0; rep <= setupReps; rep++ {
		t0 := time.Now()
		for i := 0; i < setupBatch; i++ {
			_, r := spec.reader(in)
			if _, err := dynstream.NewReaderSource(r); err != nil {
				return nil, fmt.Errorf("open source: %w", err)
			}
		}
		if rep > 0 {
			out = append(out, seconds(time.Since(t0))/setupBatch)
		}
	}
	return out, nil
}

// collect runs a garbage collection so that one measured operation
// does not pay for the previous one's garbage. Freed memory stays with
// the process: returning it to the OS would make every build fault its
// pages in afresh, a cost that varies widely between runs on a
// virtual machine.
func collect() { runtime.GC() }

// runOffline measures an offline workload: one warm-up build, then
// repeated builds for the run's duration, every answer checked (the
// first in full, the rest for bit identity with it). The warm-up build
// is left out of the figures: it is the one that faults the process's
// heap in, which on a virtual machine made it 15-30% slower than the
// builds after it, by an amount that varied from run to run.
func runOffline(spec *offlineSpec, cfg runConfig) (*result, error) {
	in, err := spec.gen(cfg.seed)
	if err != nil {
		return nil, err
	}
	progSeed := uint64(programSeed)
	if cfg.trace {
		return traceOffline(spec, in, progSeed)
	}
	ctx := context.Background()
	res := &result{metrics: map[string]float64{}}
	var setups, walls, rates []float64
	var last time.Duration
	var first []byte
	build := func() *offlineBuild {
		collect()
		b, err := spec.runBuild(ctx, in, progSeed, nil)
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("build: %w", err))
			return nil
		}
		switch {
		case first == nil:
			h, perr := parseEdges(in.n, b.out)
			if perr == nil {
				perr = spec.check(in, h)
			}
			if perr != nil {
				res.fail(fmt.Errorf("first answer: %w", perr))
			}
			first = b.out
		case !bytes.Equal(b.out, first):
			res.fail(fmt.Errorf("build %d differs from the first answer", res.attempted))
		}
		return b
	}
	build()
	// Build until another build would overrun the run's duration.
	for begin := time.Now(); time.Since(begin)+last <= cfg.duration; {
		collect()
		s, err := spec.openSetups(in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		b := build()
		if b == nil {
			continue
		}
		last = b.wall()
		walls = append(walls, seconds(last))
		if n, busy := b.rd.ingest(); busy > 0 {
			rates = append(rates, float64(n*serveBatch)/busy.Seconds())
		}
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if len(walls) == 0 || len(rates) == 0 {
		return res, nil
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["build_s"] = median(walls)
	res.metrics["ingest_ceiling_upd_s"] = median(rates)
	res.note("builds: %d after one warm-up (build_s and ingest_ceiling_upd_s are their medians); setup_s median of %d batches of %d source opens",
		len(walls), len(setups), setupBatch)
	res.note("build_s per build: %s", formatList(walls))
	return res, nil
}
