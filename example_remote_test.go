package dynstream_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"dynstream"
	"dynstream/internal/dynnet"
	"dynstream/internal/graph"
)

// Example_remoteBuild builds a spanning-forest sketch on two worker
// processes and proves the result is byte-identical to a local build.
// The workers here are in-process listeners for brevity; a real
// deployment runs `dynstream worker -listen ADDR` and passes the same
// addresses to WithRemoteWorkers (see the README's Distributed builds
// section).
func Example_remoteBuild() {
	ctx := context.Background()

	// Two workers listening on unix sockets (stand-ins for
	// `dynstream worker -listen /tmp/w0.sock` processes).
	dir, err := os.MkdirTemp("", "remote-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
		ln, err := net.Listen("unix", addrs[i])
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		go dynnet.ListenAndServeWorker(ctx, ln, dynnet.WorkerConfig{ID: fmt.Sprintf("w%d", i)})
	}

	// A churned dynamic stream: the sketches see inserts and deletes.
	g := graph.ConnectedGNP(80, 0.1, 7)
	st := dynstream.StreamWithChurn(g, 500, 8)

	// One option turns a local build into a distributed one; linearity
	// makes the merged state identical.
	remote, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 42},
		dynstream.WithRemoteWorkers(addrs...))
	if err != nil {
		log.Fatal(err)
	}
	local, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	rb, _ := remote.MarshalBinary()
	lb, _ := local.MarshalBinary()
	forest, err := remote.SpanningForestOpts(nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed state == local state: %v\n", string(rb) == string(lb))
	fmt.Printf("spanning forest edges: %d\n", len(forest))
	// Output:
	// distributed state == local state: true
	// spanning forest edges: 79
}
