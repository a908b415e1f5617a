// Command perfbench is dynstream's benchmark. One run measures one
// workload for a fixed time and prints its metrics; --trace 1 runs the
// traced variant that splits the time across the program's layers.
//
//	bash perfbench/run.sh --workload pipe-forest --seed 1 --seconds 20 --trace 0
//
// Workloads: pipe-forest (single-pass AGM forest over a pipe, two
// workers), twopass-spanner (Theorem 1 spanner, two passes over a
// seekable source, one worker) and serve-forest (the daemon core behind
// a loopback HTTP listener under open-loop ingest and closed-loop
// queries); "all" runs the three in turn. Inputs derive from --seed and
// are generated before anything is timed. Every answer is checked; a
// failed check counts as a failed operation. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
// perfbench/METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ingest_ceiling_upd_s", "upd/s"},
}

// perLayer are the metrics of a traced run, on every workload. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"stream.parse_s", "s"}, {"stream.updates", "count"}, {"stream.bytes", "bytes"},
	{"hashing.bank_evals", "count"}, {"hashing.busy_s", "s"},
	{"field.busy_s", "s"}, {"field.cells", "count"},
	{"sketch.ingest_s", "s"}, {"sketch.alloc_s", "s"}, {"sketch.words", "count"},
	{"parallel.shard_max_s", "s"}, {"parallel.shard_skew", "ratio"}, {"parallel.merge_s", "s"},
	{"agm.rounds", "count"}, {"agm.decode_s", "s"}, {"agm.merges", "count"},
	{"agm.sample_empty", "count"},
	{"spanner.pass1_s", "s"}, {"spanner.cluster_s", "s"}, {"spanner.pass2_s", "s"},
	{"spanner.recover_s", "s"}, {"spanner.terminals", "count"}, {"spanner.recovered", "count"},
	{"obs.overhead_ratio", "ratio"},
	{"bench.unattributed_s", "s"}, {"bench.render_s", "s"},
}

// serveLayer are the traced metrics only serve-forest has; its traced
// run reports them after perLayer.
var serveLayer = []metricDef{
	{"agm.cache_hit_ratio", "ratio"},
	{"serve.apply_s", "s"}, {"serve.query_handler_s", "s"}, {"serve.encode_s", "s"},
	{"serve.http_overhead_s", "s"}, {"serve.updates", "count"}, {"serve.queries", "count"},
	{"serve.query_p50_ms", "ms"}, {"serve.query_p90_ms", "ms"},
	{"serve.update_p50_ms", "ms"}, {"serve.update_p90_ms", "ms"},
	{"checkpoint.write_s", "s"}, {"checkpoint.bytes", "bytes"},
	{"bench.generator_late_ms", "ms"}, {"bench.query_fail_share", "ratio"},
}

// runConfig is one run's settings.
type runConfig struct {
	seed     uint64
	duration time.Duration
	trace    bool
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	errs              []string
}

// maxErrs bounds the failure messages a run keeps for its report.
const maxErrs = 5

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

var workloads = map[string]func(runConfig) (*result, error){
	"pipe-forest":     func(c runConfig) (*result, error) { return runOffline(&pipeForest, c) },
	"twopass-spanner": func(c runConfig) (*result, error) { return runOffline(&twopassSpanner, c) },
	"serve-forest":    runServe,
}

var workloadOrder = []string{"pipe-forest", "twopass-spanner", "serve-forest"}

// benchmarked are the workloads BENCHMARK.json lists. serve-forest is
// left out because its queries fail their checks on the program as it
// is (ROADMAP item 1), and a listed workload must run without failures;
// it still runs on request and reports those failures.
var benchmarked = workloadOrder[:2]

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "pipe-forest | twopass-spanner | serve-forest | all")
	seed := fs.Uint64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		return fmt.Errorf("unknown workload %q (want %s or all)", *workload, strings.Join(workloadOrder, ", "))
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*secs) * time.Second, trace: *trace == 1}
	rec := runRecord(cfg, names)
	fmt.Fprintf(stdout, "record %s\n", mustJSON(rec))

	attempted, failed := 0, 0
	metrics := map[string]metricValue{}
	for _, name := range names {
		res, err := workloads[name](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
			if name == "serve-forest" {
				defs = append(defs[:len(defs):len(defs)], serveLayer...)
			}
		}
		printReport(stdout, name, defs, res)
		attempted += res.attempted
		failed += res.failed
		for _, d := range defs {
			v, ok := res.metrics[d.name]
			if !ok && !cfg.trace {
				return fmt.Errorf("%s: metric %s not measured", name, d.name)
			}
			key := d.name
			if len(names) > 1 {
				key = name + "/" + d.name
			}
			metrics[key] = metricValue{v, d.unit}
		}
		collect()
	}
	fmt.Fprintln(stdout, mustJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, name string, defs []metricDef, res *result) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", name, res.attempted, res.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "   %-24s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "   # %s\n", n)
	}
	for _, e := range res.errs {
		fmt.Fprintf(w, "   ! %s\n", e)
	}
}

// heldOutSeed is the seed named for re-checking a claim: a change is
// tuned on the workload seeds and confirmed on this one.
func heldOutSeed(seed uint64) uint64 { return hashing.Mix(seed, 0x4e1d) % 1000003 }

// runRecord collects the host facts a result is only valid with.
func runRecord(cfg runConfig, names []string) map[string]any {
	// Builds inside a git checkout stamp the commit; elsewhere it is
	// unknown.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workloads":     names,
		"seed":          cfg.seed,
		"held_out_seed": heldOutSeed(cfg.seed),
		"seconds":       cfg.duration.Seconds(),
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings always marshal
	}
	return string(b)
}

// parseEdges reads rendered "u v w" lines back into a graph.
func parseEdges(n int, out []byte) (*graph.Graph, error) {
	g := graph.New(n)
	for i, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		var u, v int
		var w float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &u, &v, &w); err != nil || u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("rendered line %d %q is not an edge", i+1, line)
		}
		g.AddEdge(u, v, w)
	}
	return g, nil
}
