package sparsify

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

func TestEstimatorParallelMatchesSerial(t *testing.T) {
	g := graph.Complete(12)
	st := stream.FromGraph(g, 101)
	cfg := EstimateConfig{K: 1, J: 3, T: 6, Delta: 0.34, Seed: 102}

	serial, err := NewEstimator(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := NewEstimatorOpts(st, cfg, parallel.Default().WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.SpaceWords() != serial.SpaceWords() {
			t.Errorf("workers=%d: space %d vs serial %d", workers, par.SpaceWords(), serial.SpaceWords())
		}
		// The robust-connectivity estimate is the estimator's entire
		// query surface; it must agree on every pair.
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if pe, se := par.QExp(u, v), serial.QExp(u, v); pe != se {
					t.Fatalf("workers=%d: QExp(%d,%d) = %d vs serial %d", workers, u, v, pe, se)
				}
			}
		}
	}
}

func TestEstimatorParallelExactOracles(t *testing.T) {
	g := graph.Complete(10)
	st := stream.FromGraph(g, 103)
	cfg := EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 104, ExactOracles: true}
	serial, err := NewEstimator(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEstimatorOpts(st, cfg, parallel.Default().WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if pe, se := par.QExp(u, v), serial.QExp(u, v); pe != se {
				t.Fatalf("QExp(%d,%d) = %d vs serial %d", u, v, pe, se)
			}
		}
	}
	if _, err := NewGrid(g.N(), cfg); err == nil {
		t.Error("NewGrid accepted ExactOracles config")
	}
}

func TestSparsifyParallelMatchesSerial(t *testing.T) {
	g := graph.Complete(12)
	st := stream.FromGraph(g, 105)
	cfg := Config{
		K: 1, Z: 8, Seed: 106,
		Estimate: EstimateConfig{K: 1, J: 2, T: 6, Delta: 0.34, Seed: 107},
	}
	serial, err := Sparsify(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := SparsifyOpts(st, cfg, parallel.Default().WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Samples != serial.Samples || par.SpaceWords != serial.SpaceWords {
			t.Errorf("workers=%d: samples/space %d/%d vs serial %d/%d",
				workers, par.Samples, par.SpaceWords, serial.Samples, serial.SpaceWords)
		}
		pe, se := par.Sparsifier.Edges(), serial.Sparsifier.Edges()
		if len(pe) != len(se) {
			t.Fatalf("workers=%d: %d edges vs serial %d", workers, len(pe), len(se))
		}
		for i := range pe {
			// Bit-identical weights: the parallel path averages in the
			// serial iteration order.
			if pe[i] != se[i] {
				t.Fatalf("workers=%d: edge %d = %+v vs serial %+v", workers, i, pe[i], se[i])
			}
		}
	}
}

func TestSparsifyParallelRejectsBadWorkers(t *testing.T) {
	st := stream.FromGraph(graph.Complete(6), 108)
	if _, err := SparsifyOpts(st, Config{K: 1, Z: 2, Seed: 1}, parallel.Default().WithWorkers(0)); err == nil {
		t.Error("SparsifyOpts accepted workers=0")
	}
	if _, err := NewEstimatorOpts(st, EstimateConfig{K: 1, Seed: 1}, parallel.Default().WithWorkers(-2)); err == nil {
		t.Error("NewEstimatorOpts accepted workers=-2")
	}
}

func TestGridMergeMisuse(t *testing.T) {
	cfgA := EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 109}
	cfgB := EstimateConfig{K: 1, J: 2, T: 3, Delta: 0.34, Seed: 110}
	a, err := NewGrid(8, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGrid(8, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergePass1(b); err == nil {
		t.Error("grid MergePass1 accepted mismatched seeds")
	}
	if _, err := a.ForkPass2(); err == nil {
		t.Error("grid ForkPass2 accepted phase-0 receiver")
	}
	if err := a.EndPass1(); err != nil {
		t.Fatal(err)
	}
	w, err := a.ForkPass2()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergePass2(w); err != nil {
		t.Errorf("grid MergePass2 of forked worker: %v", err)
	}
	if _, err := a.Finish(); err != nil {
		t.Errorf("grid Finish: %v", err)
	}
	if _, err := a.Finish(); err == nil {
		t.Error("grid Finish accepted twice")
	}
}
