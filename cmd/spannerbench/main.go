// Command spannerbench regenerates every experiment table of the
// reproduction: the quantitative content of each theorem in "Spanners
// and Sparsifiers in Dynamic Streams" (Kapralov–Woodruff, PODC 2014),
// measured on this implementation. The exps table in main lists the
// experiments (E1–E10, A1–A3); their code is in experiments.go.
//
// Usage:
//
//	spannerbench [-exp all|E1|E2|...|E9|A1|A2|A3] [-quick] [-seed N]
//
// -quick shrinks instance sizes so the full suite finishes in a couple
// of minutes on one core; the default sizes are the full-scale tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type experiment struct {
	id    string
	title string
	run   func(p *params) error
}

type params struct {
	quick bool
	seed  uint64
}

func main() {
	expFlag := flag.String("exp", "all", "experiment id (E1..E9, A1..A3) or 'all'")
	quick := flag.Bool("quick", false, "shrink instance sizes for a fast run")
	seed := flag.Uint64("seed", 12345, "root random seed")
	flag.Parse()

	exps := []experiment{
		{"E1", "Theorem 1: two-pass 2^k-spanner — stretch and validity", runE1},
		{"E2", "Lemma 12: spanner size vs O(k·n^{1+1/k}·log n)", runE2},
		{"E3", "Lemmas 15+17: sketch space vs Õ(k·n^{1+1/k})", runE3},
		{"E4", "Theorem 3: single-pass n/d-additive spanner", runE4},
		{"E5", "Theorem 4: Ω(nd) INDEX lower-bound game", runE5},
		{"E6", "Corollary 2: two-pass spectral sparsifier", runE6},
		{"E7", "Theorem 7 baseline: Spielman–Srivastava sampling", runE7},
		{"E8", "Theorem 10 substrate: AGM spanning forest under churn", runE8},
		{"E9", "Baselines: Baswana–Sen and greedy (2k−1)-spanners", runE9},
		{"E10", "Extension: AGM substrate applications (k-connectivity, bipartiteness)", runE10},
		{"A1", "Ablation: subsampling levels in Algorithm 1", runA1},
		{"A2", "Ablation: sparse-recovery budget vs decode rate", runA2},
		{"A3", "Ablation: sketch vs exact oracles in ESTIMATE", runA3},
	}

	want := strings.ToUpper(*expFlag)
	valid := map[string]bool{"ALL": true}
	for _, e := range exps {
		valid[e.id] = true
	}
	if !valid[want] {
		ids := make([]string, 0, len(exps))
		for _, e := range exps {
			ids = append(ids, e.id)
		}
		sort.Strings(ids)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all %s\n", *expFlag, strings.Join(ids, " "))
		os.Exit(2)
	}

	p := &params{quick: *quick, seed: *seed}
	for _, e := range exps {
		if want != "ALL" && want != e.id {
			continue
		}
		fmt.Printf("== %s — %s ==\n", e.id, e.title)
		start := time.Now()
		if err := e.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}
}
