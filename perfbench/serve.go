package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dynstream/internal/graph"
	"dynstream/internal/obs"
	"dynstream/internal/serve"
	"dynstream/internal/stream"
)

const (
	serveSetupReps = 3
	// requestTimeout bounds every POST and GET: a hang counts as a
	// failed operation and the run still ends. The slowest healthy
	// request waits out one auto-checkpoint (about 3 s).
	requestTimeout = 10 * time.Second
	// satWindow is how many saturation-phase batches one admission-rate
	// sample spans; the ingest ceiling is the median sample.
	satWindow = 10
	// serveBudget bounds the serving phases: should the server wedge so
	// that every request waits out its deadline, the remaining requests
	// fail at once and the run still ends well within its time limit.
	serveBudget = 2 * time.Minute
	// idleProbe is how long the run watches for leftover CPU use after
	// the server closed.
	idleProbe = 500 * time.Millisecond
	// serveDir holds the auto-checkpoints, relative to the checkout.
	serveDir = ".bench_build/serve"
)

// served is one running daemon core: backend, server and listener.
type served struct {
	be    serve.Backend
	http  *http.Server
	url   string
	timer *handlerTimer // nil when untraced
	done  chan struct{} // closed when Serve returns
}

func (s *served) close() {
	s.http.Close()
	<-s.done
}

// openServed opens the forest backend, prefills it with the base graph
// and starts a loopback listener; it returns once /readyz answers.
func openServed(ctx context.Context, in *serveInput, seed uint64, ckpt string, tr *obs.Tracer) (*served, error) {
	be, _, _, err := serve.OpenBackend(ctx, serve.Spec{
		Target: "forest", N: in.n, Seed: seed, DecodeWorkers: 2, Tracer: tr,
	}, "")
	if err != nil {
		return nil, fmt.Errorf("open backend: %w", err)
	}
	srv, err := serve.NewServer([]serve.Backend{be}, serve.ServerConfig{Checkpoint: ckpt, Every: serveCkptEvery})
	if err != nil {
		return nil, err
	}
	if err := srv.ApplyBatch(in.prefill); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{be: be, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	var h http.Handler = srv.Handler()
	if tr != nil {
		s.timer = &handlerTimer{next: h}
		h = s.timer
	}
	s.http = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	if _, err := get(ctx, c, s.url+"/readyz"); err != nil {
		s.close()
		return nil, fmt.Errorf("readyz: %w", err)
	}
	return s, nil
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req)
}

func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req)
}

func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// handlerTimer wraps the server's handler and splits each request's
// handler time at the moment the response status is written: before it
// the request is decoded and served (apply or query), after it the
// response body is encoded.
type handlerTimer struct {
	next http.Handler

	mu                sync.Mutex
	apply, query, enc time.Duration
	handlerTotal      time.Duration
	queryCount        int64
}

type splitWriter struct {
	http.ResponseWriter
	head time.Time
}

func (w *splitWriter) WriteHeader(code int) {
	if w.head.IsZero() {
		w.head = time.Now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *splitWriter) Write(b []byte) (int, error) {
	if w.head.IsZero() {
		w.head = time.Now()
	}
	return w.ResponseWriter.Write(b)
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &splitWriter{ResponseWriter: w}
	t0 := time.Now()
	t.next.ServeHTTP(sw, r)
	end := time.Now()
	if sw.head.IsZero() {
		sw.head = end
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlerTotal += end.Sub(t0)
	t.enc += end.Sub(sw.head)
	switch r.URL.Path {
	case "/v1/update":
		t.apply += sw.head.Sub(t0)
	case "/v1/query":
		t.query += sw.head.Sub(t0)
		t.queryCount++
	}
}

// queryRec is one completed or failed GET /v1/query.
type queryRec struct {
	final bool // taken after ingest stopped
	lat   time.Duration
	resp  *serve.QueryResponse
	err   error
}

// serveRun is the traffic outcome of the serving phases.
type serveRun struct {
	updLat     []float64 // fixed-rate POST latency from due time, ms
	late       []float64 // how late each fixed-rate send started, ms
	updErrs    []error
	postClient time.Duration    // client-side POST time from send start
	longest    [2]time.Duration // longest POST: saturation, fixed-rate phase
	satDur     time.Duration
	satUpdates int
	satRates   []float64 // admitted updates per second per satWindow batches
	queries    []queryRec
	qClient    time.Duration // client-side GET time
}

// drive runs the saturation phase (closed-loop POSTs, no queries) and
// then the fixed-rate phase: open-loop POSTs on schedule plus a
// closed-loop query client.
func drive(ctx context.Context, s *served, in *serveInput) *serveRun {
	run := &serveRun{}
	c := newClient()
	defer c.CloseIdleConnections()
	satStart := time.Now()
	winStart, winUpd := satStart, 0
	for i := 0; i < in.sat; i++ {
		sent := time.Now()
		_, err := post(ctx, c, s.url+"/v1/update", in.bodies[i])
		run.postClient += time.Since(sent)
		run.longest[0] = maxDur(run.longest[0], time.Since(sent))
		if err != nil {
			run.updErrs = append(run.updErrs, err)
		} else {
			run.satUpdates += serveBatch
			winUpd += serveBatch
		}
		if (i+1)%satWindow == 0 {
			now := time.Now()
			run.satRates = append(run.satRates, float64(winUpd)/now.Sub(winStart).Seconds())
			winStart, winUpd = now, 0
		}
	}
	run.satDur = time.Since(satStart)

	stop := make(chan struct{})
	qdone := make(chan struct{})
	go func() {
		defer close(qdone)
		qc := newClient()
		defer qc.CloseIdleConnections()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			var rec queryRec
			b, err := get(ctx, qc, s.url+"/v1/query")
			rec.lat = time.Since(t0)
			if err == nil {
				rec.resp = &serve.QueryResponse{}
				err = json.Unmarshal(b, rec.resp)
			}
			rec.err = err
			run.queries = append(run.queries, rec)
			run.qClient += rec.lat
		}
	}()
	start := time.Now()
	for i := in.sat; i < len(in.bodies); i++ {
		due := start.Add(in.due(i - in.sat))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		run.late = append(run.late, millis(sent.Sub(due)))
		_, err := post(ctx, c, s.url+"/v1/update", in.bodies[i])
		done := time.Now()
		run.postClient += done.Sub(sent)
		run.longest[1] = maxDur(run.longest[1], done.Sub(sent))
		if err != nil {
			run.updErrs = append(run.updErrs, err)
			continue
		}
		run.updLat = append(run.updLat, millis(done.Sub(due)))
	}
	close(stop)
	<-qdone
	return run
}

// referenceBuild is the offline build of a served log prefix: the same
// pipe build pipe-forest times, through a non-seekable ReaderSource with
// two workers, decoded and rendered.
func referenceBuild(ctx context.Context, n int, prefix []stream.Update, seed uint64, tr *obs.Tracer) (*offlineBuild, error) {
	ms, err := memoryStream(n, prefix)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, ms); err != nil {
		return nil, err
	}
	in := &offlineInput{n: n, bin: buf.Bytes()}
	return pipeForest.runBuild(ctx, in, seed, tr)
}

// servedRender renders a query's edges as the CLI's "u v w" lines.
func servedRender(n int, q *serve.QueryResponse) []byte {
	g := graph.New(n)
	for _, e := range q.Edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	return render(g)
}

// serveRebuilds is how many offline rebuilds of the served log a run
// times; build_s is their median.
const serveRebuilds = 3

// runServe measures serve-forest: offline rebuilds of the whole log the
// run will send (build_s, and the reference the last query must equal),
// set-ups, then the serving phases.
func runServe(cfg runConfig) (*result, error) {
	ctx := context.Background()
	fixed := int(cfg.duration * 3 / 4 / serveInterval)
	in, err := genServe(cfg.seed, fixed*2/3, fixed)
	if err != nil {
		return nil, err
	}
	seed := uint64(programSeed)
	log := append(append([]stream.Update(nil), in.prefill...), in.live...)
	res := &result{metrics: map[string]float64{}}
	m := res.metrics

	var refTr *obs.Tracer
	rebuilds := serveRebuilds
	if cfg.trace {
		refTr, _ = newTrace()
		rebuilds = 1
	}
	var ref *offlineBuild
	var walls []float64
	for i := 0; i < rebuilds; i++ {
		collect()
		ref, err = referenceBuild(ctx, in.n, log, seed, refTr)
		if err != nil {
			return nil, fmt.Errorf("offline rebuild: %w", err)
		}
		walls = append(walls, seconds(ref.wall()))
	}
	collect()

	if err := os.MkdirAll(serveDir, 0o755); err != nil {
		return nil, err
	}
	ckpt := filepath.Join(serveDir, fmt.Sprintf("forest-%d.ckpt", os.Getpid()))
	defer os.Remove(ckpt)
	// A traced run sets up untraced twice, then traced: the ratio of
	// the traced set-up to the untraced median is the tracing overhead.
	var tr *obs.Tracer
	var setups []float64
	var s *served
	for i := 0; i < serveSetupReps; i++ {
		if s != nil {
			s.close()
			collect()
		}
		if cfg.trace && i == serveSetupReps-1 {
			tr, _ = newTrace()
		}
		start := time.Now()
		s, err = openServed(ctx, in, seed, ckpt, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	stats0 := s.be.CacheStats()
	// Start the serving phases on a fresh GC cycle, so that whether a
	// collection of the set-up's garbage lands in the saturation phase
	// does not depend on the run.
	collect()
	sctx, cancel := context.WithTimeout(ctx, serveBudget)
	defer cancel()
	run := drive(sctx, s, in)
	m["peak_rss_mb"] = peakRSSMB()

	// The last query, taken after ingest stopped, must equal an offline
	// build over the same prefix bit for bit.
	final := queryRec{final: true}
	c := newClient()
	t0 := time.Now()
	b, err := get(sctx, c, s.url+"/v1/query")
	final.lat = time.Since(t0)
	run.qClient += final.lat
	c.CloseIdleConnections()
	if err == nil {
		final.resp = &serve.QueryResponse{}
		err = json.Unmarshal(b, final.resp)
	}
	final.err = err
	run.queries = append(run.queries, final)
	stats := s.be.CacheStats()
	timer := s.timer
	s.close()
	collect()
	// A decode that hung past its request deadline keeps running after
	// the server closed; it shows as CPU burnt while nothing is served.
	cpu0 := cpuTime()
	time.Sleep(idleProbe)
	res.note("CPU busy after the server closed: %.2f cores", float64(cpuTime()-cpu0)/float64(idleProbe))

	res.attempted = len(in.bodies) + len(run.queries)
	for _, e := range run.updErrs {
		res.fail(fmt.Errorf("update: %w", e))
	}
	var answered []*serve.QueryResponse
	var slowest time.Duration
	for _, q := range run.queries {
		slowest = maxDur(slowest, q.lat)
		if q.err != nil {
			res.fail(fmt.Errorf("query: %w", q.err))
			continue
		}
		answered = append(answered, q.resp)
	}
	res.note("queries: %d answered, %d failed in transport; slowest %.3fs", len(answered), len(run.queries)-len(answered), slowest.Seconds())
	checkFails := 0
	for _, err := range checkServed(in.n, log, answered) {
		if err != nil {
			checkFails++
			res.fail(err)
		}
	}
	failShare := float64(checkFails) / float64(len(answered))
	res.note("query prefix checks: %d of %d failed (%.3f)", checkFails, len(answered), failShare)
	if final.err == nil {
		want := ref.out
		if final.resp.Applied != int64(len(log)) {
			// A POST failed: rebuild the prefix the server did apply.
			if want, err = rebuiltPrefix(ctx, in.n, log, final.resp.Applied, seed); err != nil {
				return nil, err
			}
		}
		if !bytes.Equal(servedRender(in.n, final.resp), want) {
			res.fail(fmt.Errorf("final query at applied=%d differs from the offline build", final.resp.Applied))
		}
	}

	var fixedQ []float64
	for _, q := range run.queries {
		if !q.final && q.err == nil {
			fixedQ = append(fixedQ, millis(q.lat))
		}
	}
	qp50, qp90 := pctNote(res, "query latency (fixed-rate phase)", fixedQ)
	up50, up90 := pctNote(res, "update latency (fixed-rate phase, from due time)", run.updLat)
	res.note("generator lateness: max %.3g ms over %d scheduled batches", maxOf(run.late), len(run.late))
	res.note("saturation: %d updates in %.3fs (%.0f upd/s overall); ceiling is the median of %d windows of %d batches (slowest %.0f, fastest %.0f)",
		run.satUpdates, run.satDur.Seconds(), float64(run.satUpdates)/run.satDur.Seconds(), len(run.satRates), satWindow,
		minOf(run.satRates), maxOf(run.satRates))
	res.note("longest POST (an auto-checkpoint holds the ingest lock): saturation %.3fs, fixed-rate %.3fs",
		run.longest[0].Seconds(), run.longest[1].Seconds())

	if !cfg.trace {
		m["setup_s"] = median(setups)
		m["build_s"] = median(walls)
		m["ingest_ceiling_upd_s"] = median(run.satRates)
		res.note("setup_s median of %d set-ups; build_s median of %d offline rebuilds of the %d-update log",
			len(setups), len(walls), len(log))
		return res, nil
	}

	m["obs.overhead_ratio"] = setups[serveSetupReps-1] / median(setups[:serveSetupReps-1])
	m["bench.generator_late_ms"] = maxOf(run.late)
	m["bench.query_fail_share"] = failShare
	evs := tr.Events()
	_, ckw, ca := phaseTotals(evs, "checkpoint/write")
	m["checkpoint.write_s"] = seconds(ckw)
	m["checkpoint.bytes"] = float64(ca["bytes"])
	_, qspan, _ := phaseTotals(evs, "query")
	m["serve.apply_s"] = seconds(timer.apply)
	m["serve.query_handler_s"] = seconds(timer.query)
	m["serve.encode_s"] = seconds(timer.enc)
	m["serve.http_overhead_s"] = seconds(run.postClient + run.qClient - timer.handlerTotal)
	m["serve.queries"] = float64(timer.queryCount)
	m["serve.updates"] = float64(len(log) - len(run.updErrs)*serveBatch)
	// Decode and render run in the query handler after the query span
	// ends (the live sketch is decoded outside the handle lock).
	m["agm.decode_s"] = seconds(timer.query - qspan)
	m["bench.unattributed_s"] = seconds(timer.handlerTotal - qspan - ckw - timer.enc)
	m["serve.query_p50_ms"], m["serve.query_p90_ms"] = qp50, qp90
	m["serve.update_p50_ms"], m["serve.update_p90_ms"] = up50, up90
	if d := (stats.Hits - stats0.Hits) + (stats.Misses - stats0.Misses); d > 0 {
		m["agm.cache_hit_ratio"] = float64(stats.Hits-stats0.Hits) / float64(d)
	}
	m["sketch.words"] = float64(ref.words)
	n, _, a := phaseTotals(refTr.Events(), "agm/round")
	m["agm.rounds"] = float64(n)
	m["agm.merges"] = float64(a["merges"])
	m["agm.sample_empty"] = float64(a["sample_empty"])
	res.note("agm.rounds/merges/sample_empty from the traced offline rebuild of the log (cold decode)")

	var iso isoLayers
	keys := keysOf(in.n, log)
	iso.isoHashing(seed, in.n, keys)
	iso.isoField(seed, in.n, keys)
	collect()
	iso.isoSketchAGM(seed, in.n, log)
	iso.metrics(m)
	m["stream.parse_s"], m["stream.updates"], m["stream.bytes"] = 0, 0, 0
	return res, nil
}

// rebuiltPrefix renders an offline build of the first `applied` updates.
func rebuiltPrefix(ctx context.Context, n int, log []stream.Update, applied int64, seed uint64) ([]byte, error) {
	if applied < 0 || applied > int64(len(log)) {
		return nil, fmt.Errorf("server reports applied=%d of %d sent updates", applied, len(log))
	}
	b, err := referenceBuild(ctx, n, log[:applied], seed, nil)
	if err != nil {
		return nil, fmt.Errorf("offline rebuild: %w", err)
	}
	return b.out, nil
}

// pctNote reports p50 and p90 of ms-valued samples in the run's notes,
// with the sample count, and returns them (0 for a refused percentile).
func pctNote(res *result, what string, ms []float64) (p50, p90 float64) {
	var parts []string
	for _, p := range []float64{50, 90} {
		v, err := percentile(ms, p)
		if err != nil {
			parts = append(parts, fmt.Sprintf("p%g refused (%v)", p, err))
			continue
		}
		parts = append(parts, fmt.Sprintf("p%g %.4g ms", p, v))
		if p == 50 {
			p50 = v
		} else {
			p90 = v
		}
	}
	res.note("%s, %d samples: %s", what, len(ms), strings.Join(parts, ", "))
	return p50, p90
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
