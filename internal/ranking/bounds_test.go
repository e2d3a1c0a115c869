package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundedScorers enumerates every built-in scorer through the
// BoundedScorer surface, with both default and randomized in-derivation
// parameters.
func boundedScorers(rng *rand.Rand) []BoundedScorer {
	return []BoundedScorer{
		NewPivotedTFIDF(),
		&PivotedTFIDF{S: rng.Float64()},
		NewBM25(),
		&BM25{K1: rng.Float64() * 3, B: rng.Float64()},
		NewDirichletLM(),
		&DirichletLM{Mu: 1 + rng.Float64()*4000},
		NewCosineTFIDF(),
		NewJelinekMercerLM(),
		&JelinekMercerLM{Lambda: 0.05 + 0.9*rng.Float64()},
	}
}

// randomContextStats generates collection statistics as they appear in
// practice — including context-sensitive S_c(D_P) regimes where N is
// tiny and df/tc may exceed or undercut their whole-collection
// relationships (statistics drift across snapshots is tolerated).
func randomContextStats(rng *rand.Rand, terms []string) CollectionStats {
	n := int64(1 + rng.Intn(100000))
	if rng.Intn(3) == 0 {
		n = int64(1 + rng.Intn(20)) // context-like: a handful of documents
	}
	cs := CollectionStats{
		N:        n,
		TotalLen: n * int64(1+rng.Intn(300)),
		DF:       make(map[string]int64, len(terms)),
		TC:       make(map[string]int64, len(terms)),
	}
	for _, w := range terms {
		df := int64(rng.Intn(int(n + 2))) // may exceed N: drifted stats
		cs.DF[w] = df
		cs.TC[w] = df * int64(rng.Intn(5))
	}
	return cs
}

// TestScoreNeverExceedsUpperBound is the pruning-safety property: for
// every scorer, any document with per-term tf ≤ maxTF and len ≥ minLen
// must score at or below UpperBound(maxTF, minLen). Both the map path
// (Score) and the prepared kernel are checked — the pruned loop scores
// through the kernel.
func TestScoreNeverExceedsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 400; trial++ {
		nTerms := 1 + rng.Intn(4)
		var stream []string
		terms := make([]string, nTerms)
		for i := range terms {
			terms[i] = fmt.Sprintf("w%d", i)
			for r := 0; r < 1+rng.Intn(3); r++ {
				stream = append(stream, terms[i])
			}
		}
		qs := NewQueryStats(stream)
		cs := randomContextStats(rng, terms)
		maxTF := int32(rng.Intn(60)) // 0 is legal: a container of tf-0 ghosts cannot exist, but the bound must still hold
		minLen := int32(1 + rng.Intn(400))

		for _, sc := range boundedScorers(rng) {
			ub := sc.UpperBound(qs, maxTF, minLen, cs)
			if math.IsNaN(ub) {
				t.Fatalf("trial %d %s: UpperBound is NaN", trial, sc.Name())
			}
			kernel := sc.(PreparedScorer).Prepare(qs, cs)
			for doc := 0; doc < 25; doc++ {
				ln := int64(minLen) + int64(rng.Intn(500))
				if ln < 1 {
					ln = 1
				}
				tfm := make(map[string]int64, nTerms)
				tfs := make([]int64, nTerms)
				for i, w := range terms {
					v := int64(rng.Intn(int(maxTF) + 1))
					tfm[w] = v
					tfs[i] = v
				}
				score := sc.Score(qs, DocStats{TF: tfm, Len: ln}, cs)
				scoreIx := kernel.Score(tfs, ln)
				tol := 1e-9 * math.Max(1, math.Abs(ub))
				if score > ub+tol {
					t.Fatalf("trial %d %s: Score %v > UpperBound %v (maxTF=%d minLen=%d len=%d tf=%v)",
						trial, sc.Name(), score, ub, maxTF, minLen, ln, tfs)
				}
				if scoreIx > ub+tol {
					t.Fatalf("trial %d %s: kernel Score %v > UpperBound %v (maxTF=%d minLen=%d len=%d tf=%v)",
						trial, sc.Name(), scoreIx, ub, maxTF, minLen, ln, tfs)
				}
			}
		}
	}
}

// TestUpperBoundTightAtCeiling sanity-checks the bound is not vacuous:
// a document sitting exactly at (maxTF, minLen) with every idf positive
// scores exactly the bound for the clamping-free scorers.
func TestUpperBoundTightAtCeiling(t *testing.T) {
	qs := NewQueryStats([]string{"a", "b"})
	cs := CollectionStats{
		N: 1000, TotalLen: 200000,
		DF: map[string]int64{"a": 10, "b": 50},
		TC: map[string]int64{"a": 30, "b": 200},
	}
	const maxTF, minLen = 7, 40
	for _, sc := range []BoundedScorer{NewPivotedTFIDF(), NewBM25(), NewDirichletLM(), NewCosineTFIDF(), NewJelinekMercerLM()} {
		ub := sc.UpperBound(qs, maxTF, minLen, cs)
		score := sc.Score(qs, DocStats{TF: map[string]int64{"a": maxTF, "b": maxTF}, Len: minLen}, cs)
		if math.Abs(ub-score) > 1e-9*math.Max(1, math.Abs(ub)) {
			t.Fatalf("%s: ceiling doc scores %v, bound %v — bound should be tight here", sc.Name(), score, ub)
		}
	}
}

// TestUpperBoundOutOfDerivationIsInf verifies the fail-safe: parameters
// outside a bound's derivation must disable pruning (+Inf), never
// under-estimate.
func TestUpperBoundOutOfDerivationIsInf(t *testing.T) {
	qs := NewQueryStats([]string{"a"})
	cs := CollectionStats{N: 100, TotalLen: 10000, DF: map[string]int64{"a": 5}, TC: map[string]int64{"a": 9}}
	cases := []struct {
		name string
		sc   BoundedScorer
	}{
		{"pivoted s>1 shrinking norm", &PivotedTFIDF{S: 4}},
		{"bm25 negative k1", &BM25{K1: -1, B: 0.5}},
		{"bm25 b>1", &BM25{K1: 1.2, B: 2}},
		{"dirichlet non-positive mu", &DirichletLM{Mu: 0}},
		{"jm lambda 0", &JelinekMercerLM{Lambda: 0}},
		{"jm lambda >1", &JelinekMercerLM{Lambda: 1.5}},
	}
	for _, c := range cases {
		var minLen int32 = 10
		if c.name == "pivoted s>1 shrinking norm" {
			minLen = 0 // norm = (1-4) + 4·0/avgdl < 0
		}
		if ub := c.sc.UpperBound(qs, 5, minLen, cs); !math.IsInf(ub, 1) {
			t.Fatalf("%s: UpperBound = %v, want +Inf", c.name, ub)
		}
	}
}

// TestDirichletBoundMayBeNegative documents the language-model subtlety:
// a negative bound is a legitimate, usable ceiling (short documents score
// below zero), and pruning must compare against it as-is.
func TestDirichletBoundMayBeNegative(t *testing.T) {
	qs := NewQueryStats([]string{"rare"})
	cs := CollectionStats{N: 50, TotalLen: 100000, DF: map[string]int64{"rare": 1}, TC: map[string]int64{"rare": 1}}
	sc := NewDirichletLM()
	ub := sc.UpperBound(qs, 0, 5000, cs) // container where the term never exceeds tf 0
	if ub >= 0 {
		t.Fatalf("expected a negative Dirichlet bound, got %v", ub)
	}
	score := sc.Score(qs, DocStats{TF: map[string]int64{"rare": 0}, Len: 6000}, cs)
	if score > ub+1e-12 {
		t.Fatalf("score %v exceeds negative bound %v", score, ub)
	}
}
