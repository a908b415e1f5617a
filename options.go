package dynstream

import (
	"errors"
	"fmt"
	"runtime"

	"dynstream/internal/obs"
	"dynstream/internal/stream"
)

// Typed configuration errors, so callers (and the CLI) can classify
// failures with errors.Is instead of string matching.
var (
	// ErrBadWorkers reports an invalid worker count (must be >= 1).
	ErrBadWorkers = errors.New("dynstream: workers must be >= 1")
	// ErrBadConfig reports an invalid build configuration.
	ErrBadConfig = errors.New("dynstream: invalid configuration")
	// ErrNotReplayable reports that a multi-pass build was asked to run
	// over a source that can only be consumed once (a pipe, a channel).
	ErrNotReplayable = stream.ErrNotReplayable
)

// Option configures a Build call.
type Option func(*buildOptions)

// buildOptions is the resolved option set of one Build call.
type buildOptions struct {
	workers        int
	workersSet     bool
	decodeWorkers  int
	decodeSet      bool
	batch          int
	classBase      float64
	seed           uint64
	seedSet        bool
	progress       func(int64)
	tracer         *obs.Tracer
	traceFile      string
	remoteAddrs    []string
	remoteSet      bool
	cluster        *RemoteCluster
	workerShards   bool
	decodeCache    bool
	decodeCacheSet bool
	localFallback  bool
	remoteOpts     RemoteOptions
}

// cacheOn resolves the live-handle decode-cache setting: an explicit
// WithDecodeCache wins; handles default to caching on.
func (o *buildOptions) cacheOn() bool {
	if o.decodeCacheSet {
		return o.decodeCache
	}
	return true
}

// remote reports whether this build runs on remote worker processes.
func (o *buildOptions) remote() bool { return o.remoteSet || o.cluster != nil }

// WithWorkers fixes the number of concurrent ingest workers. Without
// it, Build picks serial or sharded-merge execution automatically; by
// linearity the result is identical either way.
func WithWorkers(n int) Option {
	return func(o *buildOptions) { o.workers = n; o.workersSet = true }
}

// WithDecodeWorkers overrides the worker count of the decode /
// extraction phase — the Borůvka rounds of the spanning forest,
// EndPass1's cluster construction, table peeling in Finish, the
// sparsifier grid's per-cell extraction, and (for remote builds) the
// coordinator's worker-state decode and tree merge. Without it decode
// runs at the ingest worker count (WithWorkers, or the automatic
// choice). Decode parallelism never changes the output: results are
// placed by index and applied in the serial order, so every decoded
// object is bit-identical to a serial decode.
func WithDecodeWorkers(n int) Option {
	return func(o *buildOptions) { o.decodeWorkers = n; o.decodeSet = true }
}

// WithBatchSize sets the update-batch granularity of the ingest
// pipeline (default stream.DefaultBatchSize). Batching is purely an
// execution knob: any batch size yields bit-identical results.
func WithBatchSize(b int) Option {
	return func(o *buildOptions) { o.batch = b }
}

// WithWeightClasses switches weight-aware targets (spanner,
// sparsifier) to the geometric weight-class construction of Remark 14
// with the given class base (> 1).
func WithWeightClasses(base float64) Option {
	return func(o *buildOptions) { o.classBase = base }
}

// WithSeed overrides the target's random seed — every sketch drawn by
// the build derives its randomness from it.
func WithSeed(s uint64) Option {
	return func(o *buildOptions) { o.seed = s; o.seedSet = true }
}

// WithDecodeCache turns a live handle's per-region decode caches on or
// off (default on for Open). Off, every Query re-extracts cold; on,
// only regions whose sketch state changed since the last Query are
// re-decoded. Cached and uncached queries are bit-identical — the
// caches are keyed by injective state digests, never hashes. Build
// ignores this option (a one-shot build decodes exactly once).
func WithDecodeCache(on bool) Option {
	return func(o *buildOptions) { o.decodeCache = on; o.decodeCacheSet = true }
}

// WithProgress installs a progress callback invoked with the
// cumulative number of updates processed (across all passes and
// workers). fn must be safe for concurrent use.
//
// WithProgress is implemented as an adapter over the tracer's ingest
// events (see WithTracer): the build registers fn as an ingest
// observer on its tracer — the user's, or a private one when tracing
// was not requested — so progress and tracing share one event path.
// The observer is removed when the call that installed it returns.
func WithProgress(fn func(updates int64)) Option {
	return func(o *buildOptions) { o.progress = fn }
}

// WithTracer attaches a Tracer to the build: every phase of the
// pipeline — sharded ingest, each Borůvka round, cluster construction
// and recovery peeling, grid extraction, dynnet frame traffic,
// checkpoint I/O — emits spans and counters into it. Tracing is
// observational only: a traced build's output is bit-identical to an
// untraced one, and a nil tracer costs nothing. The same tracer may
// be reused across builds and queries; aggregates accumulate.
func WithTracer(t *Tracer) Option {
	return func(o *buildOptions) { o.tracer = t }
}

// WithTraceFile makes Build write a Chrome trace_event JSON file
// (loadable in chrome://tracing or Perfetto) to path when the build
// finishes. It enables raw event recording on the build's tracer —
// the WithTracer one, or a private tracer when none was given. A
// failure to write the file is reported only if the build itself
// succeeded. Decode rewrites the file only when a WithTracer tracer is
// given too (see Decode).
func WithTraceFile(path string) Option {
	return func(o *buildOptions) { o.traceFile = path }
}

// WithRemoteWorkers runs the build on remote worker processes: Build
// dials the given addresses ("host:port", "unix:/path", or a bare
// socket path), registers the workers, shards every pass's stream
// across them, and merges the returned sketch states — bit-identical
// to a local build by linearity. The connections are closed when Build
// returns; to amortize the handshake across several builds, dial once
// with DialWorkers and pass WithRemoteCluster instead. WithWorkers is
// ignored for remote builds (the worker count is the cluster size).
func WithRemoteWorkers(addrs ...string) Option {
	return func(o *buildOptions) { o.remoteAddrs = addrs; o.remoteSet = true }
}

// WithRemoteCluster runs the build on an already-established worker
// cluster (DialWorkers / AcceptWorkers). The cluster stays open after
// Build returns.
func WithRemoteCluster(c *RemoteCluster) Option {
	return func(o *buildOptions) { o.cluster = c }
}

// WithLocalFallback makes a remote build degrade to a local build when
// the cluster is lost — it cannot be established at dial time, or
// every worker drops mid-build (ErrNoWorkers) — and the source is
// replayable. The fallback reruns the build in-process with the same
// seeds, so its result is bit-identical to what the cluster would have
// produced. Typed worker errors (a bad update, a non-replayable local
// shard) are not retried: they would recur locally.
func WithLocalFallback() Option {
	return func(o *buildOptions) { o.localFallback = true }
}

// WithRemoteOptions tunes the connection management of a remote build
// that dials its own workers (WithRemoteWorkers): handshake and
// per-frame timeouts, dial retry/backoff, and redialing. Builds on an
// established cluster (WithRemoteCluster) carry the options the
// cluster was dialed with instead.
func WithRemoteOptions(ro RemoteOptions) Option {
	return func(o *buildOptions) { o.remoteOpts = ro }
}

// WithWorkerShards makes a remote build ingest each worker's own local
// shard source (`dynstream worker -shard FILE`) instead of streaming
// the coordinator's source: src then only supplies the vertex count.
// Only targets that never need the stream at the coordinator support
// this (no weight classes, no sparsifier, MSF only with an explicit
// WMax). A worker whose shard turns out non-replayable when a second
// pass is requested reports ErrNotReplayable over the wire.
func WithWorkerShards() Option {
	return func(o *buildOptions) { o.workerShards = true }
}

// resolveOptions applies opts (nil entries are skipped) and runs the
// validate gate — the shared prologue of Build, Open, Restore and
// Decode.
func resolveOptions(opts []Option) (*buildOptions, error) {
	o := &buildOptions{}
	for _, opt := range opts {
		if opt != nil {
			opt(o)
		}
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate is the single options gate every Build runs: it returns
// typed errors (ErrBadWorkers, ErrBadConfig) so callers never
// duplicate flag checks.
func (o *buildOptions) validate() error {
	if o.workersSet && o.workers < 1 {
		return fmt.Errorf("%w, got %d", ErrBadWorkers, o.workers)
	}
	if o.decodeSet && o.decodeWorkers < 1 {
		return fmt.Errorf("%w, got %d decode workers", ErrBadWorkers, o.decodeWorkers)
	}
	if o.batch < 0 {
		return fmt.Errorf("%w: batch size must be >= 0, got %d", ErrBadConfig, o.batch)
	}
	if o.classBase != 0 && o.classBase <= 1 {
		return fmt.Errorf("%w: weight class base must be > 1, got %v", ErrBadConfig, o.classBase)
	}
	if o.remoteSet && len(o.remoteAddrs) == 0 {
		return fmt.Errorf("%w: WithRemoteWorkers needs at least one address", ErrBadConfig)
	}
	if o.remoteSet && o.cluster != nil {
		return fmt.Errorf("%w: WithRemoteWorkers and WithRemoteCluster are mutually exclusive", ErrBadConfig)
	}
	if o.workerShards && !o.remote() {
		return fmt.Errorf("%w: WithWorkerShards requires remote workers", ErrBadConfig)
	}
	if o.localFallback && !o.remote() {
		return fmt.Errorf("%w: WithLocalFallback requires remote workers (a local build has nothing to fall back from)", ErrBadConfig)
	}
	if err := o.remoteOpts.validate(); err != nil {
		return err
	}
	return nil
}

// validateLive is the extra options gate of the live front doors (Open,
// Restore, and the serving layer built on them): live handles run
// locally — remote state arrives through Handle.Merge — and have no
// weight-class mode (the class split is a per-build reduction, not a
// live state).
func (o *buildOptions) validateLive() error {
	if o.remote() {
		return fmt.Errorf("%w: live handles run locally; ship sketch states and Handle.Merge them", ErrBadConfig)
	}
	if o.classBase != 0 {
		return fmt.Errorf("%w: live handles have no weight-class mode", ErrBadConfig)
	}
	return nil
}

// autoParallelThreshold is the stream length above which Build picks
// sharded-merge execution when no explicit worker count is given.
const autoParallelThreshold = 1 << 15

// resolveWorkers picks the execution mode: an explicit WithWorkers
// wins; otherwise long in-memory streams get a sharded merge and
// everything else (short streams, pipes, channels) runs serially —
// the memory-optimal choice for single-cursor sources.
func (o *buildOptions) resolveWorkers(src Source) int {
	if o.workersSet {
		return o.workers
	}
	return o.autoWorkers(src)
}

// resolveDecodeWorkers picks the decode-phase worker count: an
// explicit WithDecodeWorkers wins; otherwise decode follows the ingest
// resolution — an explicit WithWorkers, or the automatic
// serial/sharded choice. Remote builds (where WithWorkers does not
// govern ingest) resolve the same way, so one knob scales the whole
// coordinator side.
func (o *buildOptions) resolveDecodeWorkers(src Source) int {
	if o.decodeSet {
		return o.decodeWorkers
	}
	return o.resolveWorkers(src)
}

// autoWorkers is the automatic serial-vs-sharded choice of
// resolveWorkers for builds without an explicit WithWorkers.
func (o *buildOptions) autoWorkers(src Source) int {
	type lengther interface{ Len() int }
	if l, ok := src.(lengther); ok &&
		stream.ConcurrentReplayable(src) && l.Len() >= autoParallelThreshold {
		w := runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	return 1
}
