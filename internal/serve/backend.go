package serve

import (
	"context"
	"fmt"
	"os"
	"strings"

	"dynstream"
)

// Backend is one live target behind the daemon. Apply and Query inherit
// the handle's mutex discipline: a query is decoded under the handle's
// lock into a consistent batch-boundary snapshot, labeled with the
// exact applied-update count it observed.
type Backend interface {
	Target() string
	N() int
	Apply(updates []dynstream.Update) error
	Applied() int64
	Query(ctx context.Context) (*QueryResponse, error)
	CheckpointTo(path string) error
	CacheStats() dynstream.CacheStats
}

// Spec names one target to open, with its algorithm parameters and
// execution knobs — the daemon's flag set, essentially.
type Spec struct {
	Target        string // forest | kcert | bipartite | msf | spanner | additive | sparsify
	N             int
	K, D, Z       int
	Seed          uint64
	WMax          float64
	Gamma         float64
	Workers       int
	DecodeWorkers int
	Batch         int
	// Tracer, when non-nil, observes every pipeline phase of the opened
	// handle (ingest shards, decode, query, checkpoint) — the daemon
	// bridges it into the /metrics phase histograms.
	Tracer *dynstream.Tracer
}

// Targets lists the recognized Spec.Target names.
var Targets = []string{"additive", "bipartite", "forest", "kcert", "msf", "spanner", "sparsify"}

// backend adapts one Handle to the Backend interface.
type backend struct {
	target string
	h      *dynstream.Handle
}

func (b *backend) Target() string                         { return b.target }
func (b *backend) N() int                                 { return b.h.N() }
func (b *backend) Apply(updates []dynstream.Update) error { return b.h.Apply(updates) }
func (b *backend) Applied() int64                         { return b.h.AppliedUpdates() }
func (b *backend) CacheStats() dynstream.CacheStats       { return b.h.DecodeCacheStats() }
func (b *backend) CheckpointTo(path string) error         { return dynstream.CheckpointFile(b.h, path) }

func (b *backend) Query(ctx context.Context) (*QueryResponse, error) {
	a, err := b.h.Query(ctx)
	if err != nil {
		return nil, err
	}
	return Render(b.target, a), nil
}

// Render maps a decoded Answer of the named target to its /v1/query
// body: the result graph's edges in its own order (forest adds its
// component count and connectivity), or the bipartiteness verdict. The
// daemon's queries and every offline comparison against them go
// through it, so the two cannot render differently.
func Render(target string, a *dynstream.Answer) *QueryResponse {
	r := &QueryResponse{Target: target, Applied: a.Applied, Summary: a.Summary}
	if a.Graph == nil {
		bip := a.Bipartite
		r.Bipartite = &bip
		return r
	}
	edges := a.Graph.Edges()
	r.Edges = make([]EdgeJSON, len(edges))
	for i, e := range edges {
		r.Edges[i] = EdgeJSON{U: e.U, V: e.V, W: e.W}
	}
	if a.Components > 0 {
		conn := a.Components == 1
		r.Connected, r.Components = &conn, a.Components
	}
	return r
}

// openBackend opens (or restores) one target's handle over an empty
// base graph of spec.N vertices. If ckptPath names a readable, valid
// checkpoint for this target, the handle resumes from it — restored is
// then the snapshot's applied-update count; otherwise the handle starts
// fresh (restored -1) and a non-empty ckptPath that failed to restore
// is reported in note. The daemon replays nothing itself: the feed that
// produced the checkpointed updates is expected to resume past
// AppliedUpdates, or queries simply reflect the restored prefix.
func openBackend[R any](ctx context.Context, spec Spec, target dynstream.Target[R], ckptPath string) (Backend, int64, string, error) {
	base := dynstream.NewMemoryStream(spec.N)
	opts := []dynstream.Option{dynstream.WithBatchSize(spec.Batch)}
	if spec.Workers > 0 {
		opts = append(opts, dynstream.WithWorkers(spec.Workers))
	}
	if spec.DecodeWorkers > 0 {
		opts = append(opts, dynstream.WithDecodeWorkers(spec.DecodeWorkers))
	}
	if spec.Tracer != nil {
		opts = append(opts, dynstream.WithTracer(spec.Tracer))
	}
	note := ""
	if ckptPath != "" {
		f, err := os.Open(ckptPath)
		if err == nil {
			h, rerr := dynstream.Restore(ctx, f, base, target, opts...)
			f.Close()
			if rerr == nil {
				return &backend{target: spec.Target, h: h}, h.AppliedUpdates(), "", nil
			}
			note = fmt.Sprintf("checkpoint %s not restored (%v); starting fresh", ckptPath, rerr)
		} else if !os.IsNotExist(err) {
			note = fmt.Sprintf("checkpoint %s not restored (%v); starting fresh", ckptPath, err)
		}
	}
	h, err := dynstream.Open(ctx, base, target, opts...)
	if err != nil {
		return nil, 0, note, err
	}
	return &backend{target: spec.Target, h: h}, -1, note, nil
}

// OpenBackend opens (or restores, when ckptPath names a valid snapshot)
// the spec's target. The note return carries a human-readable remark
// about a checkpoint that existed but could not be restored.
func OpenBackend(ctx context.Context, spec Spec, ckptPath string) (b Backend, restored int64, note string, err error) {
	switch spec.Target {
	case "forest":
		return openBackend(ctx, spec, dynstream.ForestTarget{Seed: spec.Seed}, ckptPath)
	case "kcert":
		return openBackend(ctx, spec, dynstream.KConnectivityTarget{Seed: spec.Seed, K: spec.K}, ckptPath)
	case "bipartite":
		return openBackend(ctx, spec, dynstream.BipartitenessTarget{Seed: spec.Seed}, ckptPath)
	case "msf":
		return openBackend(ctx, spec, dynstream.MSFTarget{Seed: spec.Seed, WMax: spec.WMax, Gamma: spec.gamma()}, ckptPath)
	case "spanner":
		return openBackend(ctx, spec, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: spec.K, Seed: spec.Seed}}, ckptPath)
	case "additive":
		return openBackend(ctx, spec, dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: spec.D, Seed: spec.Seed}}, ckptPath)
	case "sparsify":
		return openBackend(ctx, spec,
			dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{K: spec.K, Z: spec.Z, Seed: spec.Seed}}, ckptPath)
	default:
		return nil, 0, "", fmt.Errorf("unknown target %q (want one of %s)", spec.Target, strings.Join(Targets, "|"))
	}
}

// gamma resolves the MSF approximation parameter (default 0.5, the
// CLI's choice).
func (s Spec) gamma() float64 {
	if s.Gamma > 0 {
		return s.Gamma
	}
	return 0.5
}
