package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dynstream"
	"dynstream/internal/field"
	"dynstream/internal/hashing"
	"dynstream/internal/obs"
	"dynstream/internal/sketch"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// traceEventCap bounds the events one traced run records.
const traceEventCap = 1 << 20

// newTrace returns an event-recording tracer and the wall time its
// event offsets count from.
func newTrace() (*obs.Tracer, time.Time) {
	tr := obs.New()
	t0 := time.Now()
	tr.EnableEvents(traceEventCap)
	return tr, t0
}

// phaseTotals sums the events whose phase has the given prefix: their
// count, summed duration and summed attributes.
func phaseTotals(evs []obs.Event, prefix string) (n int, wall time.Duration, attrs map[string]int64) {
	attrs = map[string]int64{}
	for _, e := range evs {
		if !strings.HasPrefix(e.Phase, prefix) {
			continue
		}
		n++
		wall += e.Dur
		for _, a := range e.Attrs {
			attrs[a.Key] += a.Val
		}
	}
	return n, wall, attrs
}

// covered is the length of the union of the events' intervals inside
// [lo, hi) (offsets from the tracer's start), counting only phases that
// keep(phase) accepts. Overlapping spans — parallel shards, nested
// phases — count once.
func covered(evs []obs.Event, lo, hi time.Duration, keep func(string) bool) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, e := range evs {
		if !keep(e.Phase) {
			continue
		}
		a, b := e.Start, e.Start+e.Dur
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// attributed reports whether a span counts toward a layer's self time
// in the residue: every program span, and the benchmark's own spans
// around calls below Build (source open, decode, render). The program's
// top-level ingest span is left out because its shards and merge are
// attributed on their own.
func attributed(phase string) bool { return phase != "ingest" }

// isoLayers replays a workload's updates through the stream, hashing,
// field and sketch layers in isolation, labelled as such in the report.
type isoLayers struct {
	parse              time.Duration
	parsedUpd, parsedB int64
	hashBusy           time.Duration
	hashEvals          int64
	fieldBusy          time.Duration
	fieldCells         int64
	sketchAlloc        time.Duration
	sketchIngest       time.Duration
}

// isoStream parses the binary stream `passes` times through a
// ReaderSource over an in-memory reader.
func (l *isoLayers) isoStream(bin []byte, passes int) error {
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		src, err := dynstream.NewReaderSource(bytes.NewReader(bin))
		if err != nil {
			return err
		}
		var n int64
		if err := src.Replay(func(stream.Update) error { n++; return nil }); err != nil {
			return err
		}
		l.parse += time.Since(t0)
		l.parsedUpd += n
		l.parsedB += int64(len(bin))
	}
	return nil
}

// agmRounds is the Borůvka round count of an AGM sketch over n
// vertices (agm.New's default: ceil(log2 n)+2).
func agmRounds(n int) int {
	rounds := 2
	for x := 1; x < n; x *= 2 {
		rounds++
	}
	return rounds
}

// roundFamilies derives the per-round L0 families an AGM sketch over n
// vertices uses (agm.New's geometry, sparse-recovery budget 4).
func roundFamilies(seed uint64, n int) []*sketch.L0Family {
	fams := make([]*sketch.L0Family, agmRounds(n))
	for r := range fams {
		fams[r] = sketch.NewL0Family(hashing.Mix(seed, uint64(r)), uint64(n)*uint64(n), 4)
	}
	return fams
}

// keysOf returns the canonical pair keys of the updates.
func keysOf(n int, ups []stream.Update) []uint64 {
	keys := make([]uint64, len(ups))
	for i, u := range ups {
		a, b := u.U, u.V
		if a > b {
			a, b = b, a
		}
		keys[i] = stream.PairKey(a, b, n)
	}
	return keys
}

// isoHashing evaluates, per update and round, the bucket-hash bank of
// an L0 family's surviving levels — the hashing an AGM ingest does —
// with banks of the same geometry (levels × 3 rows of degree-6
// polynomials, a degree-8 level hash).
func (l *isoLayers) isoHashing(seed uint64, n int, keys []uint64) {
	rounds := agmRounds(n)
	levels := 2
	for u := uint64(n) * uint64(n); u > 1; u >>= 1 {
		levels++
	}
	const rows = 3
	type bank struct {
		level *hashing.Poly
		b     *hashing.PolyBank
	}
	banks := make([]bank, rounds)
	for r := range banks {
		rs := hashing.Mix(seed, uint64(r))
		var polys []*hashing.Poly
		for j := 0; j < levels; j++ {
			for row := 0; row < rows; row++ {
				polys = append(polys, hashing.NewPoly(hashing.Mix(hashing.Mix(rs, 0x1b, uint64(j)), uint64(row)+1), 6))
			}
		}
		banks[r] = bank{hashing.NewPoly(hashing.Mix(rs, 0x10), 8), hashing.NewPolyBank(polys...)}
	}
	dst := make([]uint64, levels*rows)
	t0 := time.Now()
	for _, k := range keys {
		for _, b := range banks {
			lv := b.level.Level(k)
			if lv >= levels {
				lv = levels - 1
			}
			b.b.HashPrefix(k, dst[:(lv+1)*rows])
			l.hashEvals++
		}
	}
	l.hashBusy += time.Since(t0)
}

// isoField runs the field kernels on the workload's keys: batched
// fingerprint exponentiation of every key under each round's base, then
// one fused cell fold per round of n level-0 cell blocks (the shape of
// a Borůvka merge).
func (l *isoLayers) isoField(seed uint64, n int, keys []uint64) {
	rounds := agmRounds(n)
	const batch = stream.DefaultBatchSize
	exps := make([]uint64, batch)
	dst := make([]uint64, batch)
	const cells = 3 * 6 // rows × level-0 columns of a budget-4 sketch
	counts := make([]int64, n*cells)
	sums := make([]uint64, n*cells)
	fings := make([]uint64, n*cells)
	acc := make([]int64, cells)
	accK := make([]uint64, cells)
	accF := make([]uint64, cells)
	for i := range counts {
		counts[i] = int64(i % 7)
		sums[i] = uint64(i) * 0x9e3779b97f4a7c15 % field.P
		fings[i] = uint64(i) * 0xbf58476d1ce4e5b9 % field.P
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		tab := field.NewPowTable(field.Reduce(hashing.Mix(seed, uint64(r), 0xf1f1)) | 2)
		for i := 0; i < len(keys); i += batch {
			j := i + batch
			if j > len(keys) {
				j = len(keys)
			}
			for x, k := range keys[i:j] {
				exps[x] = field.Reduce(k)
			}
			tab.FingerprintVec(dst[:j-i], exps[:j-i])
			l.fieldCells += int64(j - i)
		}
		for v := 0; v < n; v++ {
			o := v * cells
			field.MergeCells(acc, accK, accF, counts[o:o+cells], sums[o:o+cells], fings[o:o+cells])
		}
		l.fieldCells += int64(n * cells)
	}
	l.fieldBusy += time.Since(t0)
}

// isoSketchAGM allocates an AGM sampler grid over n vertices and routes
// every update into both endpoint samplers of every round, exactly as
// agm.Sketch.AddEdge does.
func (l *isoLayers) isoSketchAGM(seed uint64, n int, ups []stream.Update) {
	fams := roundFamilies(seed, n)
	t0 := time.Now()
	grid := sketch.NewSamplerGrid(fams, n)
	l.sketchAlloc += time.Since(t0)
	var h sketch.L0Hint
	t0 = time.Now()
	for _, u := range ups {
		a, b := u.U, u.V
		if a > b {
			a, b = b, a
		}
		key := stream.PairKey(a, b, n)
		d := int64(u.Delta)
		for r, f := range fams {
			f.Hint(key, &h)
			grid[r][a].AddHint(key, d, &h)
			grid[r][b].AddHint(key, -d, &h)
		}
	}
	l.sketchIngest += time.Since(t0)
}

// isoSketchSpanner allocates the two-pass spanner's first-pass sketch
// state and ingests the stream into it.
func (l *isoLayers) isoSketchSpanner(seed uint64, n int, ups []stream.Update) error {
	t0 := time.Now()
	tp := spanner.NewTwoPass(n, spanner.Config{K: spannerK, Seed: seed})
	l.sketchAlloc += time.Since(t0)
	t0 = time.Now()
	for i := 0; i < len(ups); i += stream.DefaultBatchSize {
		j := i + stream.DefaultBatchSize
		if j > len(ups) {
			j = len(ups)
		}
		if err := tp.Pass1AddBatch(ups[i:j]); err != nil {
			return err
		}
	}
	l.sketchIngest += time.Since(t0)
	return nil
}

// metrics stores the isolated layers' numbers.
func (l *isoLayers) metrics(m map[string]float64) {
	m["stream.parse_s"] = seconds(l.parse)
	m["stream.updates"] = float64(l.parsedUpd)
	m["stream.bytes"] = float64(l.parsedB)
	m["hashing.bank_evals"] = float64(l.hashEvals)
	m["hashing.busy_s"] = seconds(l.hashBusy)
	m["field.busy_s"] = seconds(l.fieldBusy)
	m["field.cells"] = float64(l.fieldCells)
	m["sketch.alloc_s"] = seconds(l.sketchAlloc)
	m["sketch.ingest_s"] = seconds(l.sketchIngest)
}

// agmMetrics reads the Borůvka round spans.
func agmMetrics(evs []obs.Event, m map[string]float64) {
	n, wall, a := phaseTotals(evs, "agm/round")
	m["agm.rounds"] = float64(n)
	m["agm.decode_s"] = seconds(wall)
	m["agm.merges"] = float64(a["merges"])
	m["agm.sample_empty"] = float64(a["sample_empty"])
	if a["cache_hit"]+a["cache_miss"] > 0 {
		m["agm.cache_hit_ratio"] = float64(a["cache_hit"]) / float64(a["cache_hit"]+a["cache_miss"])
	}
}

// shardMetrics reads the sharded-ingest spans.
func shardMetrics(evs []obs.Event, m map[string]float64) {
	var lo, hi time.Duration
	for _, e := range evs {
		if !strings.HasPrefix(e.Phase, "ingest/shard") {
			continue
		}
		if lo == 0 || e.Dur < lo {
			lo = e.Dur
		}
		if e.Dur > hi {
			hi = e.Dur
		}
	}
	m["parallel.shard_max_s"] = seconds(hi)
	if lo > 0 {
		m["parallel.shard_skew"] = float64(hi) / float64(lo)
	}
	_, merge, _ := phaseTotals(evs, "ingest/merge")
	m["parallel.merge_s"] = seconds(merge)
}

// spannerMetrics reads the two-pass spanner's spans: the two ingest
// passes in order, cluster levels, and recovery.
func spannerMetrics(evs []obs.Event, m map[string]float64) {
	pass := 0
	for _, e := range evs {
		if e.Phase != "ingest" {
			continue
		}
		pass++
		if pass <= 2 {
			m[fmt.Sprintf("spanner.pass%d_s", pass)] = seconds(e.Dur)
		}
	}
	_, cl, _ := phaseTotals(evs, "spanner/cluster/")
	m["spanner.cluster_s"] = seconds(cl)
	_, rec, a := phaseTotals(evs, "spanner/recover")
	m["spanner.recover_s"] = seconds(rec)
	m["spanner.terminals"] = float64(a["terminals"])
	m["spanner.recovered"] = float64(a["recovered"])
}

// traceOffline is the traced run of an offline workload: two untraced
// builds (the first warms the heap up; the second is the overhead
// baseline), one traced build read through the program's spans and the
// benchmark's own, and the isolated layer replays.
func traceOffline(spec *offlineSpec, in *offlineInput, progSeed uint64) (*result, error) {
	ctx := context.Background()
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	var plain *offlineBuild
	for i := 0; i < 2; i++ {
		collect()
		b, err := spec.runBuild(ctx, in, progSeed, nil)
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("untraced build: %w", err)
		}
		if plain != nil && !bytes.Equal(plain.out, b.out) {
			res.fail(fmt.Errorf("untraced builds differ"))
		}
		plain = b
	}
	collect()
	tr, t0 := newTrace()
	traced, err := spec.runBuild(ctx, in, progSeed, tr)
	res.attempted++
	if err != nil {
		return nil, fmt.Errorf("traced build: %w", err)
	}
	if !bytes.Equal(plain.out, traced.out) {
		res.fail(fmt.Errorf("traced answer differs from untraced"))
	} else if h, err := parseEdges(in.n, traced.out); err != nil {
		res.fail(err)
	} else if err := spec.check(in, h); err != nil {
		res.fail(err)
	}
	evs := tr.Events()
	lo, hi := traced.start.Sub(t0), traced.end.Sub(t0)
	m["bench.unattributed_s"] = seconds(traced.wall() - covered(evs, lo, hi, attributed))
	m["obs.overhead_ratio"] = seconds(traced.wall()) / seconds(plain.wall())
	m["sketch.words"] = float64(traced.words)
	shardMetrics(evs, m)
	agmMetrics(evs, m)
	if spec.passes == 2 {
		spannerMetrics(evs, m)
	}
	_, render, _ := phaseTotals(evs, "bench/render")
	m["bench.render_s"] = seconds(render)

	var iso isoLayers
	if err := iso.isoStream(in.bin, spec.passes); err != nil {
		return nil, err
	}
	keys := keysOf(in.n, in.updates)
	iso.isoHashing(progSeed, in.n, keys)
	iso.isoField(progSeed, in.n, keys)
	collect()
	if spec.passes == 2 {
		if err := iso.isoSketchSpanner(progSeed, in.n, in.updates); err != nil {
			return nil, err
		}
	} else {
		iso.isoSketchAGM(progSeed, in.n, in.updates)
	}
	iso.metrics(m)
	res.note("traced build %.3fs, untraced %.3fs; isolated layer replays over the workload's %d updates",
		seconds(traced.wall()), seconds(plain.wall()), len(in.updates))
	return res, nil
}
