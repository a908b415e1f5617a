package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/serve"
	"dynstream/internal/stream"
)

// Workload sizes. They follow the benchmark's workload definitions in
// perfbench/METRICS.md; the program only ever sees the bytes or
// requests generated from them.
const (
	forestN     = 10000
	forestDeg   = 4.0 // expected degree of the ConnectedGNP base graph
	forestChurn = 100000

	spannerN     = 2000
	spannerDeg   = 100.0
	spannerChurn = 40000
	spannerK     = 2

	serveBatch = 500   // updates per POST
	serveRate  = 10000 // updates per second in the fixed-rate phase
	// serveInterval is the schedule spacing of fixed-rate batches.
	serveInterval = time.Second * serveBatch / serveRate
	// serveCkptEvery is the auto-checkpoint interval in admitted updates.
	serveCkptEvery = 200000

	// programSeed is the algorithms' own randomness, the CLI's default
	// -seed. It stays fixed so that runs with different workload seeds
	// differ in their inputs only.
	programSeed = 1
)

// offlineInput is a generated offline workload: the final graph the
// stream describes and the stream in the binary wire format.
type offlineInput struct {
	n       int
	final   *graph.Graph
	updates []stream.Update
	bin     []byte
}

// genOffline builds ConnectedGNP(n, deg/n) plus `churn` insert/delete
// pairs of non-edges, all derived from seed.
func genOffline(n int, deg float64, churn int, seed uint64) (*offlineInput, error) {
	g := graph.ConnectedGNP(n, deg/float64(n), hashing.Mix(seed, 1))
	ms := stream.WithChurn(g, churn, hashing.Mix(seed, 2))
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, ms); err != nil {
		return nil, fmt.Errorf("encode stream: %w", err)
	}
	in := &offlineInput{n: n, final: g, bin: buf.Bytes()}
	in.updates = make([]stream.Update, 0, ms.Len())
	if err := ms.Replay(func(u stream.Update) error {
		in.updates = append(in.updates, u)
		return nil
	}); err != nil {
		return nil, err
	}
	return in, nil
}

// serveInput is the generated serve-forest traffic: the prefill (the
// base graph's edges) and the live update log cut into POST batches
// with pre-encoded JSON bodies. The first `sat` batches are sent
// closed-loop in the saturation phase, the rest on the fixed-rate
// schedule.
type serveInput struct {
	n       int
	prefill []stream.Update
	live    []stream.Update
	bodies  [][]byte
	sat     int // batches in the saturation phase
}

// genServe derives the serve-forest traffic from seed. The live log
// toggles random pairs: each update either deletes a churn edge
// inserted earlier or inserts a pair absent from the current graph, so
// every update is valid whatever prefix the server has applied.
func genServe(seed uint64, satBatches, fixedBatches int) (*serveInput, error) {
	n := forestN
	g := graph.ConnectedGNP(n, forestDeg/float64(n), hashing.Mix(seed, 1))
	in := &serveInput{n: n, sat: satBatches}
	present := map[uint64]bool{}
	if err := stream.FromGraph(g, hashing.Mix(seed, 2)).Replay(func(u stream.Update) error {
		in.prefill = append(in.prefill, u)
		present[stream.PairKey(u.U, u.V, n)] = true
		return nil
	}); err != nil {
		return nil, err
	}
	rng := hashing.NewSplitMix64(hashing.Mix(seed, 3))
	var pool [][2]int
	total := (satBatches + fixedBatches) * serveBatch
	in.live = make([]stream.Update, 0, total)
	for len(in.live) < total {
		if len(pool) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(pool))
			e := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			delete(present, stream.PairKey(e[0], e[1], n))
			in.live = append(in.live, stream.Update{U: e[0], V: e[1], Delta: -1, W: 1})
			continue
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || present[stream.PairKey(u, v, n)] {
			continue
		}
		present[stream.PairKey(u, v, n)] = true
		pool = append(pool, [2]int{u, v})
		in.live = append(in.live, stream.Update{U: u, V: v, Delta: 1, W: 1})
	}
	for i := 0; i < len(in.live); i += serveBatch {
		req := serve.UpdateRequest{}
		for _, u := range in.live[i : i+serveBatch] {
			req.Updates = append(req.Updates, serve.UpdateJSON{U: u.U, V: u.V, Delta: u.Delta, W: u.W})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// due returns the scheduled send time of fixed-rate batch i relative to
// that phase's start: an open loop, independent of how fast the server
// answers.
func (in *serveInput) due(i int) time.Duration { return time.Duration(i) * serveInterval }

// memoryStream copies updates into a MemoryStream over n vertices.
func memoryStream(n int, updates []stream.Update) (*dynstream.MemoryStream, error) {
	ms := dynstream.NewMemoryStream(n)
	for _, u := range updates {
		if err := ms.Append(u); err != nil {
			return nil, err
		}
	}
	return ms, nil
}
