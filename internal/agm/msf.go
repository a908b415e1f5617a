package agm

import (
	"fmt"
	"math"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// MSF computes a (1+gamma)-approximate minimum spanning forest from
// linear sketches — the remaining [AGM12a] application the paper lists
// ("minimum spanning trees"). Edge weights are rounded into geometric
// classes; one connectivity sketch is kept per class *prefix* (edges of
// weight at most the class bound), and the forest is assembled
// Kruskal-style: the lightest prefix contributes its spanning forest,
// each heavier prefix then extends it on the contraction of what is
// already connected. Within a class, weights differ by at most a
// (1+gamma) factor, so the result is a (1+gamma)-approximate MSF.
type MSF struct {
	n         int
	gamma     float64
	maxClass  int
	prefixes  []*Sketch // prefixes[c] sketches edges with class <= c
	classSeen []bool
}

// NewMSF creates the sketch for a graph on n vertices whose edge
// weights lie in [1, wmax], with class ratio 1+gamma.
func NewMSF(seed uint64, n int, wmax, gamma float64) *MSF {
	if gamma <= 0 {
		gamma = 1
	}
	base := 1 + gamma
	maxClass := stream.WeightClassOf(wmax, base) + 1
	m := &MSF{
		n:        n,
		gamma:    gamma,
		maxClass: maxClass,
		prefixes: make([]*Sketch, maxClass+1),
	}
	for c := 0; c <= maxClass; c++ {
		m.prefixes[c] = New(hashing.Mix(seed, 0x3f, uint64(c)), n, Config{})
	}
	return m
}

// N returns the vertex count.
func (m *MSF) N() int { return m.n }

// EnableDecodeCache turns the per-component pick cache on or off for
// every class-prefix sketch (see Sketch.EnableDecodeCache).
func (m *MSF) EnableDecodeCache(on bool) {
	for _, s := range m.prefixes {
		s.EnableDecodeCache(on)
	}
}

// InvalidateDecodeCache drops every prefix sketch's cached component
// decodes; the next Forest runs cold.
func (m *MSF) InvalidateDecodeCache() {
	for _, s := range m.prefixes {
		s.InvalidateDecodeCache()
	}
}

// DecodeCacheStats sums the decode-cache hit/miss counters of every
// prefix sketch.
func (m *MSF) DecodeCacheStats() (hits, misses uint64) {
	for _, s := range m.prefixes {
		h, ms := s.DecodeCacheStats()
		hits += h
		misses += ms
	}
	return hits, misses
}

// AddUpdate folds a weighted update into every prefix sketch whose
// class bound covers the edge's weight class.
func (m *MSF) AddUpdate(u stream.Update) {
	c := stream.WeightClassOf(u.W, 1+m.gamma)
	if c > m.maxClass {
		c = m.maxClass
	}
	for p := c; p <= m.maxClass; p++ {
		m.prefixes[p].AddEdge(u.U, u.V, int64(u.Delta))
	}
}

// AddBatch folds a batch of weighted updates; bit-identical to calling
// AddUpdate per element.
func (m *MSF) AddBatch(batch []stream.Update) {
	for _, u := range batch {
		m.AddUpdate(u)
	}
}

// Merge adds another MSF sketch built with the same seed and
// parameters; the result sketches the union of the two streams.
func (m *MSF) Merge(o *MSF) error {
	if m.n != o.n || m.gamma != o.gamma || m.maxClass != o.maxClass {
		return fmt.Errorf("agm: merging incompatible MSF sketches (n %d/%d, gamma %g/%g, classes %d/%d)",
			m.n, o.n, m.gamma, o.gamma, m.maxClass, o.maxClass)
	}
	for c := range m.prefixes {
		if err := m.prefixes[c].Merge(o.prefixes[c]); err != nil {
			return fmt.Errorf("agm: msf merge class %d: %w", c, err)
		}
	}
	return nil
}

// ForestOpts extracts the approximate MSF under the decode policy p
// (nil runs serially): edges tagged with the upper bound of their
// weight class, so the returned total weight is within (1+gamma) of
// exact, assuming the per-class forests succeed whp. Each class
// prefix's Borůvka rounds fan across the policy's workers; the classes
// themselves stay sequential (each contracts the previous).
func (m *MSF) ForestOpts(p *parallel.Policy) ([]graph.Edge, error) {
	uf := graph.NewUnionFind(m.n)
	var out []graph.Edge
	base := 1 + m.gamma
	for c := 0; c <= m.maxClass; c++ {
		if uf.Sets() == 1 {
			break
		}
		// Current groups: components connected by lighter classes.
		groups := map[int][]int{}
		for v := 0; v < m.n; v++ {
			r := uf.Find(v)
			groups[r] = append(groups[r], v)
		}
		groupList := make([][]int, 0, len(groups))
		// Deterministic order for reproducibility.
		roots := make([]int, 0, len(groups))
		for r := range groups {
			roots = append(roots, r)
		}
		sort.Ints(roots)
		for _, r := range roots {
			groupList = append(groupList, groups[r])
		}
		f, err := m.prefixes[c].SpanningForestOpts(groupList, p)
		if err != nil {
			return nil, fmt.Errorf("agm: msf class %d: %w", c, err)
		}
		w := math.Pow(base, float64(c+1))
		for _, e := range f {
			if uf.Union(e.U, e.V) {
				out = append(out, graph.Edge{U: e.U, V: e.V, W: w})
			}
		}
	}
	return out, nil
}

// SpaceWords returns the memory footprint in 64-bit words.
func (m *MSF) SpaceWords() int {
	w := 0
	for _, s := range m.prefixes {
		w += s.SpaceWords()
	}
	return w
}
