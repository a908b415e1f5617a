package main

import (
	"bytes"
	"fmt"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/serve"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

// stretchSources is how many evenly spaced BFS sources the spanner
// check samples.
const stretchSources = 64

// edgeSet is a graph as a set of canonical pair keys.
type edgeSet struct {
	n     int
	edges map[uint64]struct{}
}

func newEdgeSet(n int) *edgeSet { return &edgeSet{n: n, edges: map[uint64]struct{}{}} }

func (s *edgeSet) key(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return stream.PairKey(u, v, s.n)
}

func (s *edgeSet) has(u, v int) bool { _, ok := s.edges[s.key(u, v)]; return ok }

// apply folds one update; a deletion of an absent edge or a second
// insertion is an error (the generators never produce either).
func (s *edgeSet) apply(u stream.Update) error {
	k := s.key(u.U, u.V)
	_, ok := s.edges[k]
	switch {
	case u.Delta > 0 && !ok:
		s.edges[k] = struct{}{}
	case u.Delta < 0 && ok:
		delete(s.edges, k)
	default:
		return fmt.Errorf("update %+v is not valid against the current graph", u)
	}
	return nil
}

// components counts the connected components of the set exactly.
func (s *edgeSet) components() int {
	uf := graph.NewUnionFind(s.n)
	for k := range s.edges {
		u, v := stream.DecodePairKey(k, s.n)
		uf.Union(u, v)
	}
	return uf.Sets()
}

func edgeSetOf(g *graph.Graph) *edgeSet {
	s := newEdgeSet(g.N())
	for _, e := range g.Edges() {
		s.edges[s.key(e.U, e.V)] = struct{}{}
	}
	return s
}

// checkForest verifies a claimed spanning forest of the graph `of`:
// every edge is in the graph, the edges form no cycle, and they leave
// exactly as many components as the graph has.
func checkForest(of *edgeSet, forest [][2]int) error {
	uf := graph.NewUnionFind(of.n)
	for _, e := range forest {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= of.n || v >= of.n || !of.has(u, v) {
			return fmt.Errorf("forest edge %d-%d is not in the graph", u, v)
		}
		if !uf.Union(u, v) {
			return fmt.Errorf("forest edge %d-%d closes a cycle", u, v)
		}
	}
	if got, want := uf.Sets(), of.components(); got != want {
		return fmt.Errorf("forest leaves %d components, graph has %d", got, want)
	}
	return nil
}

// checkSpanner verifies that h is a subgraph of g whose stretch over
// stretchSources sampled BFS sources is at most 2^k.
func checkSpanner(g, h *graph.Graph, k int) error {
	if !h.IsSubgraphOf(g) {
		return fmt.Errorf("spanner is not a subgraph of the final graph")
	}
	rep := verify.Stretch(g, h, stretchSources)
	bound := float64(int(1) << k)
	switch {
	case rep.Disconnected > 0:
		return fmt.Errorf("spanner disconnects %d sampled pairs", rep.Disconnected)
	case rep.Shortcuts > 0:
		return fmt.Errorf("spanner shortcuts %d sampled pairs", rep.Shortcuts)
	case rep.MaxStretch > bound:
		return fmt.Errorf("stretch %.3g exceeds 2^%d", rep.MaxStretch, k)
	}
	return nil
}

// render writes g's edges as "u v w" lines, the CLI's output format.
func render(g *graph.Graph) []byte {
	var b bytes.Buffer
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "%d %d %g\n", e.U, e.V, e.W)
	}
	return b.Bytes()
}

// forestPairs lists a rendered forest's edges.
func forestPairs(g *graph.Graph) [][2]int {
	var out [][2]int
	for _, e := range g.Edges() {
		out = append(out, [2]int{e.U, e.V})
	}
	return out
}

// checkServed verifies every query against the exact graph at its
// reported applied prefix of log, sweeping the log once in prefix
// order. It returns one error slot per query (nil = passed).
func checkServed(n int, log []stream.Update, queries []*serve.QueryResponse) []error {
	errs := make([]error, len(queries))
	order := make([]int, len(queries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return queries[order[a]].Applied < queries[order[b]].Applied })
	cur := newEdgeSet(n)
	pos := 0
	for _, qi := range order {
		q := queries[qi]
		if q.Applied < int64(pos) || q.Applied > int64(len(log)) {
			errs[qi] = fmt.Errorf("applied=%d outside the sent log of %d updates", q.Applied, len(log))
			continue
		}
		for ; pos < int(q.Applied); pos++ {
			if err := cur.apply(log[pos]); err != nil {
				errs[qi] = err
				return errs
			}
		}
		forest := make([][2]int, len(q.Edges))
		for i, e := range q.Edges {
			forest[i] = [2]int{e.U, e.V}
		}
		if err := checkForest(cur, forest); err != nil {
			errs[qi] = fmt.Errorf("query at applied=%d: %w", q.Applied, err)
			continue
		}
		if q.Components != n-len(q.Edges) {
			errs[qi] = fmt.Errorf("query at applied=%d: reports %d components for %d forest edges",
				q.Applied, q.Components, len(q.Edges))
		}
	}
	return errs
}
