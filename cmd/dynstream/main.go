// Command dynstream runs the paper's streaming algorithms over a
// dynamic edge stream read from stdin (or a file) in the text format
//
//	n <vertices>
//	+ <u> <v> [w]     insert
//	- <u> <v> [w]     delete
//
// or the binary wire format (auto-detected), and writes the resulting
// edge set to stdout as "u v w" lines, with a summary on stderr.
//
// Subcommands:
//
//	spanner   -k K       two-pass 2^K-spanner (Theorem 1)
//	additive  -d D       one-pass n/D-additive spanner (Theorem 3)
//	sparsify  -k K -z Z  two-pass spectral sparsifier (Corollary 2)
//	forest               AGM spanning forest (Theorem 10)
//	kcert     -k K       k-edge-connectivity certificate
//	msf       [-wmax W]  (1+γ)-approximate minimum spanning forest
//	bipartite            bipartiteness test (prints verdict)
//	worker               sketch worker process (multi-process builds)
//	coord                coordinator wrapper around any subcommand
//
// The stream is never materialized: single-pass subcommands (additive,
// forest, kcert, bipartite, and msf with -wmax) ingest a pipe on stdin
// with O(sketch) heap no matter how many updates flow through, and
// multi-pass subcommands rewind seekable inputs (-in FILE, or a
// redirected file on stdin). Only a true pipe feeding a multi-pass
// subcommand falls back to materializing, with a note on stderr.
//
// All subcommands accept -workers P (concurrent same-seeded sketch
// ingest, merged by linearity — output identical to -workers 1),
// -decodeworkers Q (concurrent extraction — Borůvka rounds, cluster
// construction, table peeling; defaults to -workers, output identical
// at any count) and -batch B (ingest batch size; purely an execution
// knob).
//
// With -repl a build subcommand becomes a live serving loop (Open
// instead of Build): the base stream comes from -in FILE (or -n N for
// an empty graph), and stdin carries commands —
//
//   - <u> <v> [w]     apply an insert
//   - <u> <v> [w]     apply a delete
//     query             re-extract and print the current result
//     save <path>       write a checkpoint of the live state
//     load <path>       replace the live state from a checkpoint
//     quit              exit
//
// Applied updates fold into the live sketch state; each query is
// served incrementally from the decode caches and is bit-identical to
// a cold rebuild over the base stream plus every applied update.
//
// With -checkpoint PATH -every N the repl snapshots automatically:
// every N applied updates the pending batch is flushed and the live
// state is written to PATH (atomically, via rename), so a killed
// process can be resumed by restarting with `load PATH` — or through
// the library's Restore — and replaying the update suffix past the
// snapshot's AppliedUpdates count. Restored queries are bit-identical
// to an uninterrupted session's.
//
// Multi-process builds pair one coordinator with worker processes over
// TCP or unix sockets; the output is byte-identical to a local build:
//
//	dynstream worker -listen /tmp/w0.sock &
//	dynstream worker -listen /tmp/w1.sock &
//	dynstream coord -remote /tmp/w0.sock,/tmp/w1.sock spanner -k 2 < graph.txt
//
// SIGINT and SIGTERM cancel the build context: partial runs (including
// long-lived worker processes) shut down cleanly instead of dying
// mid-write with a stack trace.
//
// Example:
//
//	dynstream spanner -k 2 -seed 7 -workers 4 < graph.txt > spanner.txt
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynstream"
	"dynstream/internal/dynnet"
	"dynstream/internal/serve"
)

func main() {
	// Translate SIGINT/SIGTERM into context cancellation so a build
	// interrupted mid-ingest — or a long-lived worker process — tears
	// down its connections and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dynstream: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "dynstream:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: dynstream <spanner|additive|sparsify|forest|kcert|msf|bipartite|worker|coord|client> [flags] < stream.txt")
	}
	switch args[0] {
	case "worker":
		return runWorker(ctx, args[1:], stderr)
	case "coord":
		return runCoord(ctx, args[1:], stdin, stdout, stderr)
	case "client":
		return runClient(ctx, args[1:], stdin, stdout, stderr)
	}
	return runBuild(ctx, args, nil, nil, stdin, stdout, stderr)
}

// runWorker runs a sketch worker process: it registers with a
// coordinator (or waits for one), then executes build passes shipped
// over the wire until the connection closes or the context is
// canceled.
func runWorker(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", "", "address to accept a coordinator on (host:port or unix socket path)")
		connect = fs.String("connect", "", "coordinator address to register with")
		shard   = fs.String("shard", "", "local shard file to ingest for -workershards builds")
		id      = fs.String("id", "", "worker id reported at registration (default the listen/connect address)")
		quiet   = fs.Bool("q", false, "suppress per-pass log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*listen == "") == (*connect == "") {
		return fmt.Errorf("worker: exactly one of -listen or -connect is required: %w", dynstream.ErrBadConfig)
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fmt.Errorf("unexpected arguments after flags: %v", extra)
	}

	cfg := dynnet.WorkerConfig{ID: *id}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}
	if *shard != "" {
		f, err := os.Open(*shard)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err := dynstream.NewReaderSource(f)
		if err != nil {
			return fmt.Errorf("worker shard %s: %w", *shard, err)
		}
		cfg.Source = src
	}

	if *connect != "" {
		if cfg.ID == "" {
			cfg.ID = *connect
		}
		network, address := dynnet.ResolveNetwork(*connect)
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, address)
		if err != nil {
			return fmt.Errorf("worker: register with coordinator: %w", err)
		}
		return dynnet.ServeWorker(ctx, conn, cfg)
	}

	if cfg.ID == "" {
		cfg.ID = *listen
	}
	network, address := dynnet.ResolveNetwork(*listen)
	ln, err := net.Listen(network, address)
	if err != nil {
		return err
	}
	defer ln.Close()
	if network == "unix" {
		defer os.Remove(address)
	}
	fmt.Fprintf(stderr, "worker %s: listening on %s\n", cfg.ID, *listen)
	err = dynnet.ListenAndServeWorker(ctx, ln, cfg)
	if errors.Is(err, context.Canceled) {
		return context.Canceled
	}
	return err
}

// runCoord wraps any build subcommand in a multi-process coordinator:
// it establishes the worker cluster (dialing workers, or accepting
// their registrations), then delegates to the regular subcommand logic
// with the cluster attached to the Build call.
func runCoord(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		remote    = fs.String("remote", "", "comma-separated worker addresses to dial")
		listen    = fs.String("listen", "", "address to accept worker registrations on")
		await     = fs.Int("await", 0, "number of worker registrations to wait for (with -listen)")
		shards    = fs.Bool("workershards", false, "workers ingest their own -shard files; the stream is not sent (requires -n)")
		nFlag     = fs.Int("n", 0, "vertex count for -workershards builds (no coordinator-side stream)")
		handshake = fs.Duration("handshake-timeout", 10*time.Second, "per-worker registration timeout (> 0)")
		frame     = fs.Duration("frame-timeout", 0, "per-frame read/write deadline; a worker silent past it is declared dead (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sub := fs.Args()
	if len(sub) == 0 {
		return fmt.Errorf("coord: missing build subcommand (e.g. `coord -remote a,b spanner -k 2`)")
	}
	switch {
	case (*remote == "") == (*listen == ""):
		return fmt.Errorf("coord: exactly one of -remote or -listen is required: %w", dynstream.ErrBadConfig)
	case *listen != "" && *await < 1:
		return fmt.Errorf("coord: -listen needs -await >= 1, got %d: %w", *await, dynstream.ErrBadConfig)
	case *shards && *nFlag < 1:
		return fmt.Errorf("coord: -workershards needs -n >= 1, got %d: %w", *nFlag, dynstream.ErrBadConfig)
	case *handshake <= 0:
		return fmt.Errorf("coord: -handshake-timeout must be > 0, got %v: %w", *handshake, dynstream.ErrBadConfig)
	case *frame < 0:
		return fmt.Errorf("coord: -frame-timeout must be >= 0, got %v: %w", *frame, dynstream.ErrBadConfig)
	}
	ro := dynstream.RemoteOptions{HandshakeTimeout: *handshake, FrameTimeout: *frame}

	var cluster *dynstream.RemoteCluster
	var err error
	if *remote != "" {
		addrs := strings.Split(*remote, ",")
		cluster, err = dynstream.DialWorkersWith(ctx, ro, addrs...)
	} else {
		network, address := dynnet.ResolveNetwork(*listen)
		var ln net.Listener
		ln, err = net.Listen(network, address)
		if err != nil {
			return err
		}
		defer ln.Close()
		if network == "unix" {
			defer os.Remove(address)
		}
		fmt.Fprintf(stderr, "coordinator: awaiting %d worker registrations on %s\n", *await, *listen)
		cluster, err = dynstream.AcceptWorkersWith(ctx, ln, *await, ro)
	}
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Fprintf(stderr, "coordinator: %d workers registered: %s\n",
		cluster.Live(), strings.Join(cluster.WorkerIDs(), ", "))

	// Progress with bytes-on-wire, throttled to every 2^18 updates.
	var lastReport int64
	progress := func(updates int64) {
		if updates-lastReport < 1<<18 {
			return
		}
		lastReport = updates
		out, in := cluster.BytesOnWire()
		fmt.Fprintf(stderr, "coordinator: %d updates shipped, wire %d B out / %d B in\n", updates, out, in)
	}
	extra := []dynstream.Option{
		dynstream.WithRemoteCluster(cluster),
		dynstream.WithProgress(progress),
	}
	var srcOverride dynstream.Source
	if *shards {
		extra = append(extra, dynstream.WithWorkerShards())
		srcOverride = dynstream.NewMemoryStream(*nFlag)
	}
	err = runBuild(ctx, sub, extra, srcOverride, stdin, stdout, stderr)
	// Final wire accounting, straight from the per-frame-type counters
	// (the same source BytesOnWire and the tracer report from).
	out, in := cluster.BytesOnWire()
	fmt.Fprintf(stderr, "coordinator: wire total %d B out / %d B in across %d workers\n",
		out, in, len(cluster.WorkerIDs()))
	sent, received := cluster.FrameStats()
	for _, st := range sent {
		fmt.Fprintf(stderr, "coordinator: wire out %-7s %7d frames %12d B\n", st.Type, st.Count, st.Bytes)
	}
	for _, st := range received {
		fmt.Fprintf(stderr, "coordinator: wire in  %-7s %7d frames %12d B\n", st.Type, st.Count, st.Bytes)
	}
	return err
}

// runBuild parses and executes one build subcommand. extraOpts carries
// coordinator options; srcOverride (when non-nil) replaces the input
// stream entirely (worker-shard builds have no coordinator-side
// stream).
func runBuild(ctx context.Context, args []string, extraOpts []dynstream.Option, srcOverride dynstream.Source, stdin io.Reader, stdout, stderr io.Writer) error {
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		k       = fs.Int("k", 2, "stretch/connectivity parameter (>= 1)")
		d       = fs.Int("d", 4, "additive spanner space parameter (>= 1)")
		z       = fs.Int("z", 32, "sparsifier repetitions (>= 1)")
		seed    = fs.Uint64("seed", 1, "random seed")
		workers = fs.Int("workers", 1, "concurrent ingest workers (>= 1)")
		decodeW = fs.Int("decodeworkers", 0, "concurrent decode workers (0 = follow -workers)")
		batch   = fs.Int("batch", 0, "ingest batch size (0 = default)")
		wmax    = fs.Float64("wmax", 0, "msf: weight upper bound (0 = scan the stream)")
		input   = fs.String("in", "", "input file (default stdin)")
		repl    = fs.Bool("repl", false, "serve a live handle: base stream from -in/-n, then +/-/query/save/load commands on stdin")
		nFlag   = fs.Int("n", 0, "vertex count for -repl without -in (empty base graph)")
		ckpt    = fs.String("checkpoint", "", "repl: auto-snapshot the live state to this path (atomic rename; with -every)")
		every   = fs.Int("every", 0, "repl: flush and snapshot after this many applied updates (with -checkpoint)")
		trace   = fs.Bool("trace", false, "print a per-phase timeline (and counters) to stderr when done")
		traceF  = fs.String("trace-out", "", "write the build's spans as Chrome trace_event JSON to this file (load in Perfetto)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Algorithm-parameter validation, typed so callers can classify
	// (execution options — workers, batch — are validated by Build).
	switch {
	case *k < 1:
		return fmt.Errorf("-k must be >= 1, got %d: %w", *k, dynstream.ErrBadConfig)
	case *d < 1:
		return fmt.Errorf("-d must be >= 1, got %d: %w", *d, dynstream.ErrBadConfig)
	case *z < 1:
		return fmt.Errorf("-z must be >= 1, got %d: %w", *z, dynstream.ErrBadConfig)
	case *wmax < 0:
		return fmt.Errorf("-wmax must be >= 0, got %v: %w", *wmax, dynstream.ErrBadConfig)
	case *decodeW < 0:
		return fmt.Errorf("-decodeworkers must be >= 0, got %d: %w", *decodeW, dynstream.ErrBadConfig)
	case *every < 0:
		return fmt.Errorf("-every must be >= 0, got %d: %w", *every, dynstream.ErrBadConfig)
	case (*ckpt == "") != (*every == 0):
		return fmt.Errorf("-checkpoint and -every go together (snapshot where, how often): %w", dynstream.ErrBadConfig)
	case *ckpt != "" && !*repl:
		return fmt.Errorf("-checkpoint/-every only apply to -repl sessions: %w", dynstream.ErrBadConfig)
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fmt.Errorf("unexpected arguments after flags: %v", extra)
	}
	// -trace/-trace-out attach one tracer to every phase of the run —
	// Build and Decode, or the live handle's ingest and queries; the
	// timeline prints on the way out (success or failure — a partial
	// timeline is exactly what a stuck build needs).
	opts := append([]dynstream.Option{
		dynstream.WithWorkers(*workers),
		dynstream.WithBatchSize(*batch),
	}, extraOpts...)
	if *decodeW > 0 {
		opts = append(opts, dynstream.WithDecodeWorkers(*decodeW))
	}
	if *trace || *traceF != "" {
		tr := dynstream.NewTracer()
		if *trace {
			defer tr.WriteTimeline(stderr)
		}
		opts = append(opts, dynstream.WithTracer(tr))
	}
	if *traceF != "" {
		opts = append(opts, dynstream.WithTraceFile(*traceF))
	}
	inv := &invocation{ctx: ctx, opts: opts, repl: *repl, ck: replCkpt{path: *ckpt, every: *every},
		stdin: stdin, stdout: stdout, stderr: stderr}
	switch {
	case *repl:
		if *traceF != "" {
			return fmt.Errorf("-trace-out needs a bounded build; use -trace for repl sessions: %w", dynstream.ErrBadConfig)
		}
		if len(extraOpts) > 0 || srcOverride != nil {
			return fmt.Errorf("-repl is a local serving loop; it does not compose with coord: %w", dynstream.ErrBadConfig)
		}
		switch {
		case *input != "":
			f, err := os.Open(*input)
			if err != nil {
				return err
			}
			defer f.Close()
			rs, err := dynstream.NewReaderSource(f)
			if err != nil {
				return err
			}
			inv.src = rs
		case *nFlag > 0:
			inv.src = dynstream.NewMemoryStream(*nFlag)
		default:
			return fmt.Errorf("-repl needs a base stream: -in FILE or -n N: %w", dynstream.ErrBadConfig)
		}
		fmt.Fprintf(stderr, "repl: n=%d, serving %s (+/-/query/save/load/quit on stdin)\n", inv.src.N(), cmd)
	case srcOverride != nil:
		inv.src = srcOverride
		fmt.Fprintf(stderr, "stream: n=%d from worker-local shards\n", inv.src.N())
	default:
		in := stdin
		if *input != "" {
			f, err := os.Open(*input)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		rs, err := dynstream.NewReaderSource(in)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "stream: n=%d, %d workers\n", rs.N(), *workers)
		inv.src = rs
	}

	switch cmd {
	case "spanner":
		return runTarget(inv, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: *k, Seed: *seed}})
	case "additive":
		return runTarget(inv, dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: *d, Seed: *seed}})
	case "sparsify":
		return runTarget(inv, dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{K: *k, Z: *z, Seed: *seed}})
	case "forest":
		return runTarget(inv, dynstream.ForestTarget{Seed: *seed})
	case "kcert":
		return runTarget(inv, dynstream.KConnectivityTarget{Seed: *seed, K: *k})
	case "msf":
		return runTarget(inv, dynstream.MSFTarget{Seed: *seed, WMax: *wmax, Gamma: 0.5})
	case "bipartite":
		return runTarget(inv, dynstream.BipartitenessTarget{Seed: *seed})
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// invocation is one build subcommand, resolved: its input (for -repl,
// the base stream), its options, and where its answers go.
type invocation struct {
	ctx            context.Context
	src            dynstream.Source
	opts           []dynstream.Option
	repl           bool
	ck             replCkpt
	stdin          io.Reader
	stdout, stderr io.Writer
}

// runTarget runs the subcommand's target: a one-shot Build plus Decode
// that prints the Answer (edges on stdout, summary on stderr — or, for
// the bipartiteness verdict, the summary on stdout), or with -repl a
// live serving loop over the same target.
func runTarget[R any](inv *invocation, target dynstream.Target[R]) error {
	if inv.repl {
		return serveLive(inv, target)
	}
	src, err := replayableFor(inv.src, target.Passes(), inv.stderr)
	if err != nil {
		return err
	}
	res, err := dynstream.Build(inv.ctx, src, target, inv.opts...)
	if err != nil {
		return err
	}
	a, err := dynstream.Decode(inv.ctx, target, res, inv.opts...)
	if err != nil {
		return err
	}
	if a.Graph == nil {
		_, err := fmt.Fprintln(inv.stdout, a.Summary)
		return err
	}
	// The one-shot summary also reports what a Build result holds beyond
	// the Answer: the additive spanner's center count, the MSF's
	// class-weight total.
	line := a.Summary
	switch r := any(res).(type) {
	case *dynstream.AdditiveResult:
		line += fmt.Sprintf(", %d centers", r.Centers)
	case *dynstream.MSF:
		line += fmt.Sprintf(", class-weight total %g", a.Graph.TotalWeight())
	}
	fmt.Fprintf(inv.stderr, "%s, %d sketch words\n", line, a.SpaceWords)
	return writeEdges(inv.stdout, a.Graph)
}

// replCkpt is the repl's auto-snapshot schedule (-checkpoint/-every).
type replCkpt struct {
	path  string
	every int
}

// serveLive opens the target's handle over the base stream and serves
// the command loop, wiring `load` to the library's Restore over the
// same base/target/options.
func serveLive[R any](inv *invocation, target dynstream.Target[R]) error {
	h, err := dynstream.Open(inv.ctx, inv.src, target, inv.opts...)
	if err != nil {
		return err
	}
	restore := func(r io.Reader) (*dynstream.Handle, error) {
		return dynstream.Restore(inv.ctx, r, inv.src, target, inv.opts...)
	}
	return serveReplErr(inv.ctx, h, restore, inv.ck, inv.stdin, inv.stdout, inv.stderr)
}

// serveReplErr drives the live command loop: +/- lines accumulate into
// a pending batch, "query" flushes the batch into the handle and
// prints the Answer (edges and an "ok <edges>" line on stdout, its
// summary on stderr), "save"/"load" checkpoint and restore the live state, and
// "quit" exits. A malformed line is answered with a distinguishable
// "err <reason>" line on stdout (mirrored on stderr) and skipped, so a
// scripted producer reading the response stream sees every rejection
// in-band instead of a silent gap. With an auto-snapshot schedule
// (-checkpoint/-every) the pending batch is flushed and the state
// saved every `every` applied updates.
func serveReplErr(ctx context.Context, h *dynstream.Handle,
	restore func(io.Reader) (*dynstream.Handle, error), ck replCkpt,
	stdin io.Reader, stdout, stderr io.Writer) error {
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var pending []dynstream.Update
	queries := 0
	// reject answers a malformed line in-band: "err <reason>" on stdout
	// (where a scripted producer reads responses), a note on stderr.
	reject := func(format string, a ...any) error {
		msg := fmt.Sprintf(format, a...)
		if _, err := fmt.Fprintf(stdout, "err %s\n", msg); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "repl: %s\n", msg)
		return nil
	}
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := h.Apply(pending); err != nil {
			return err
		}
		pending = pending[:0]
		return nil
	}
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "+", "-":
			u, err := serve.ParseUpdate(fields)
			if err != nil {
				if err := reject("%v", err); err != nil {
					return err
				}
				continue
			}
			pending = append(pending, u)
			if ck.every > 0 && len(pending) >= ck.every {
				if err := flush(); err != nil {
					return err
				}
				if err := dynstream.CheckpointFile(h, ck.path); err != nil {
					return fmt.Errorf("repl: auto-checkpoint: %w", err)
				}
				fmt.Fprintf(stderr, "repl: checkpoint saved to %s (%d updates applied)\n", ck.path, h.AppliedUpdates())
			}
		case "query":
			if err := flush(); err != nil {
				return err
			}
			a, err := h.Query(ctx)
			if err != nil {
				return err
			}
			queries++
			edges := 0
			if a.Graph != nil {
				edges = a.Graph.M()
			}
			if err := writeEdges(stdout, a.Graph); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(stdout, "ok %d\n", edges); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "repl query %d: %s\n", queries, a.Summary)
		case "save":
			if len(fields) != 2 {
				if err := reject("want: save <path>"); err != nil {
					return err
				}
				continue
			}
			if err := flush(); err != nil {
				return err
			}
			if err := dynstream.CheckpointFile(h, fields[1]); err != nil {
				fmt.Fprintf(stderr, "repl: save: %v\n", err)
				continue
			}
			fmt.Fprintf(stderr, "repl: checkpoint saved to %s (%d updates applied)\n", fields[1], h.AppliedUpdates())
		case "load":
			if len(fields) != 2 {
				if err := reject("want: load <path>"); err != nil {
					return err
				}
				continue
			}
			if len(pending) > 0 {
				fmt.Fprintf(stderr, "repl: load discards %d pending updates\n", len(pending))
				pending = pending[:0]
			}
			f, err := os.Open(fields[1])
			if err != nil {
				fmt.Fprintf(stderr, "repl: load: %v\n", err)
				continue
			}
			h2, err := restore(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "repl: load: %v\n", err)
				continue
			}
			h = h2
			fmt.Fprintf(stderr, "repl: restored %s (%d updates applied)\n", fields[1], h.AppliedUpdates())
		case "quit", "exit":
			return nil
		default:
			if err := reject("unknown command %q (want: + u v [w] | - u v [w] | query | save PATH | load PATH | quit)", fields[0]); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// replayableFor hands src through when the target's passes fit its
// replayability (seekable inputs rewind in constant memory); a true
// pipe feeding a multi-pass build is materialized, with a note.
func replayableFor(src dynstream.Source, passes int, stderr io.Writer) (dynstream.Source, error) {
	if passes <= 1 || dynstream.CanReplay(src) {
		return src, nil
	}
	fmt.Fprintln(stderr, "note: input is not seekable; materializing the stream for a multi-pass build")
	ms := dynstream.NewMemoryStream(src.N())
	if err := src.Replay(ms.Append); err != nil {
		return nil, err
	}
	return ms, nil
}

// writeEdges prints g's edges as "u v w" lines (nothing for a nil
// graph, the bipartiteness answer).
func writeEdges(w io.Writer, g *dynstream.Graph) error {
	if g == nil {
		return nil
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "%d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}
