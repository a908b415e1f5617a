// Distributed sketching: the setting from the paper's introduction,
// with real operating-system processes. s servers each observe a shard
// of the update stream (x = x^1 + ... + x^s); every server computes the
// linear sketch of its own shard, the coordinator sums the sketches and
// extracts a spanning forest — no server ever communicates raw edges.
//
// Each server here is a separate worker PROCESS (this example re-execs
// itself in a worker role) listening on a unix socket and speaking the
// dynnet frame protocol; the coordinator is the parent process driving
// dynstream.Build with WithRemoteWorkers. Sketch(x^1)+...+Sketch(x^s) =
// Sketch(x), so deletions shipped to one server cancel insertions
// shipped to another, and the final state is byte-identical to a
// single-process build.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"dynstream"
	"dynstream/internal/dynnet"
	"dynstream/internal/graph"
)

const roleEnv = "DYNSTREAM_EXAMPLE_ROLE"

func main() {
	if sock := os.Getenv(roleEnv); sock != "" {
		workerMain(sock)
		return
	}

	const (
		n       = 120
		servers = 4
		seed    = 99
	)

	g := graph.ConnectedGNP(n, 0.08, seed)
	full := dynstream.StreamWithChurn(g, 800, seed+1)
	fmt.Printf("graph: n=%d m=%d; %d updates sharded across %d worker processes\n",
		g.N(), g.M(), full.Len(), servers)

	// Spawn the worker processes: each re-execs this binary in the
	// worker role, listening on its own unix socket.
	dir, err := os.MkdirTemp("", "dynstream-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addrs := make([]string, servers)
	for i := range addrs {
		sock := filepath.Join(dir, fmt.Sprintf("server%d.sock", i))
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s", roleEnv, sock))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		defer func() { cmd.Process.Kill(); cmd.Wait() }()
		addrs[i] = sock
	}
	readyCtx, cancelReady := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelReady()
	for _, sock := range addrs {
		if err := waitWorkerReady(readyCtx, sock); err != nil {
			log.Fatalf("worker %s never became dialable: %v", sock, err)
		}
	}

	// The coordinator registers the workers, then Build ships every
	// server its shard of the stream and merges the returned sketch
	// bytes — the same front door as a local build, plus one option.
	ctx := context.Background()
	cluster, err := dynstream.DialWorkers(ctx, addrs...)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("registered workers: %v\n", cluster.WorkerIDs())

	state, err := dynstream.Build(ctx, full, dynstream.ForestTarget{Seed: seed + 3},
		dynstream.WithRemoteCluster(cluster))
	if err != nil {
		log.Fatal(err)
	}
	out, in := cluster.BytesOnWire()
	fmt.Printf("coordinator merged %d worker sketches; wire: %d B out, %d B in\n",
		servers, out, in)

	// The paper's guarantee, checked: the distributed state equals a
	// local single-process build bit for bit. A mismatch is a hard
	// failure so the CI examples canary catches protocol regressions.
	local, err := dynstream.Build(ctx, full, dynstream.ForestTarget{Seed: seed + 3})
	if err != nil {
		log.Fatal(err)
	}
	lb, err := local.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	db, err := state.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if string(lb) != string(db) {
		log.Fatalf("distributed state DIFFERS from local state (%d vs %d bytes)", len(db), len(lb))
	}
	fmt.Printf("distributed state == local state: OK (%d bytes)\n", len(db))

	forest, err := state.SpanningForestOpts(nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoordinator extracted a forest with %d edges\n", len(forest))

	// Verify: the forest spans g and uses only real edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			log.Fatalf("forest edge (%d,%d) is not a real edge", e.U, e.V)
		}
		parent[find(e.U)] = find(e.V)
	}
	components := map[int]bool{}
	for v := 0; v < n; v++ {
		components[find(v)] = true
	}
	_, want := g.Components()
	fmt.Printf("forest spans %d component(s); graph has %d — %s\n",
		len(components), want, okString(len(components) == want))
}

// waitWorkerReady probes the worker's socket with short dials until it
// accepts, honoring ctx instead of a fixed poll budget. A successful
// probe connection is closed immediately; the worker's accept loop
// treats the dropped session as a failed coordinator and keeps
// listening.
func waitWorkerReady(ctx context.Context, sock string) error {
	d := net.Dialer{}
	for {
		probeCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		conn, err := d.DialContext(probeCtx, "unix", sock)
		cancel()
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// workerMain is the re-exec'd worker role: listen on the socket, serve
// coordinator sessions until killed.
func workerMain(sock string) {
	ln, err := net.Listen("unix", sock)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	defer os.Remove(sock)
	err = dynnet.ListenAndServeWorker(context.Background(), ln, dynnet.WorkerConfig{ID: sock})
	if err != nil {
		log.Fatal(err)
	}
}

func okString(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}
