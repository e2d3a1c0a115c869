package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelScorers enumerates all five scorers with default, randomized and
// out-of-derivation parameters, so the kernels' early-exit and +Inf
// branches are compared too.
func kernelScorers(rng *rand.Rand) []PreparedScorer {
	return []PreparedScorer{
		NewPivotedTFIDF(),
		&PivotedTFIDF{S: rng.Float64()},
		&PivotedTFIDF{S: 1 + 4*rng.Float64()},
		NewBM25(),
		&BM25{K1: rng.Float64() * 3, B: rng.Float64()},
		&BM25{K1: -rng.Float64(), B: 1 + rng.Float64()},
		NewDirichletLM(),
		&DirichletLM{Mu: 1 + rng.Float64()*4000},
		&DirichletLM{Mu: -rng.Float64() * 10},
		NewCosineTFIDF(),
		NewJelinekMercerLM(),
		&JelinekMercerLM{Lambda: 0.05 + 0.9*rng.Float64()},
		&JelinekMercerLM{Lambda: []float64{0, 1, 1.5}[rng.Intn(3)]},
	}
}

// randomTF draws a term frequency: mostly small, sometimes 0, sometimes
// past the kernels' tf tables.
func randomTF(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return tfTableSize - 2 + int64(rng.Intn(5))
	case 2:
		return int64(tfTableSize + rng.Intn(100000))
	default:
		return int64(1 + rng.Intn(40))
	}
}

// randomKernelStats draws collection statistics over terms, covering the
// degenerate corners: N = 0, len(D) = 0 (avgdl = 0), df < 1, df > N and
// tc ≤ 0.
func randomKernelStats(rng *rand.Rand, terms []string) CollectionStats {
	var cs CollectionStats
	switch rng.Intn(8) {
	case 0:
		// empty collection
	case 1:
		cs.N = int64(1 + rng.Intn(50)) // N > 0 but len(D) = 0
	default:
		cs.N = int64(1 + rng.Intn(100000))
		cs.TotalLen = cs.N * int64(1+rng.Intn(300))
	}
	cs.DF = make(map[string]int64, len(terms))
	cs.TC = make(map[string]int64, len(terms))
	for _, w := range terms {
		cs.DF[w] = int64(rng.Intn(int(cs.N)+3)) - 1 // -1 … N+1
		cs.TC[w] = cs.DF[w] * int64(rng.Intn(6)-1)
	}
	return cs
}

// TestKernelBitIdenticalToScore: for every scorer, the prepared kernel's
// Score is bit-equal to Score over the map statistics, and TermBound is
// bit-equal to UpperBound over the single-term projection of the query
// and statistics — the projection the pruned loop used to build.
func TestKernelBitIdenticalToScore(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	for trial := 0; trial < 500; trial++ {
		nTerms := 1 + rng.Intn(5)
		terms := make([]string, nTerms)
		var stream []string
		for i := range terms {
			terms[i] = fmt.Sprintf("w%d", i)
			for r := 0; r < 1+rng.Intn(3); r++ {
				stream = append(stream, terms[i])
			}
		}
		rng.Shuffle(len(stream), func(a, b int) { stream[a], stream[b] = stream[b], stream[a] })
		qs := NewQueryStats(stream)
		cs := randomKernelStats(rng, terms)
		distinct := qs.DistinctTerms()
		for _, sc := range kernelScorers(rng) {
			k := sc.Prepare(qs, cs)
			for doc := 0; doc < 20; doc++ {
				ln := int64(rng.Intn(600))
				tfm := make(map[string]int64, nTerms)
				tfs := make([]int64, nTerms)
				for i, w := range distinct {
					tfs[i] = randomTF(rng)
					tfm[w] = tfs[i]
				}
				want := sc.Score(qs, DocStats{TF: tfm, Len: ln}, cs)
				if got := k.Score(tfs, ln); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %s: kernel Score %v (%#x) != Score %v (%#x) (tf=%v len=%d cs=%+v)",
						trial, sc.Name(), got, math.Float64bits(got), want, math.Float64bits(want), tfs, ln, cs)
				}
			}
			bounded := sc.(BoundedScorer)
			for i, w := range distinct {
				tq := make([]string, qs.TQ[w])
				for j := range tq {
					tq[j] = w
				}
				q1 := NewQueryStats(tq)
				c1 := CollectionStats{
					N: cs.N, TotalLen: cs.TotalLen,
					DF: map[string]int64{w: cs.DF[w]},
					TC: map[string]int64{w: cs.TC[w]},
				}
				for b := 0; b < 8; b++ {
					maxTF := int32(randomTF(rng))
					if rng.Intn(8) == 0 {
						maxTF = -int32(rng.Intn(3))
					}
					minLen := int32(rng.Intn(500)) - 2
					want := bounded.UpperBound(q1, maxTF, minLen, c1)
					if got := k.TermBound(i, maxTF, minLen); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d %s term %d: TermBound %v != UpperBound %v (maxTF=%d minLen=%d cs=%+v)",
							trial, sc.Name(), i, got, want, maxTF, minLen, c1)
					}
				}
			}
		}
	}
}

// plainScorer is a Scorer with no Prepare: Prepare falls back to Score.
type plainScorer struct{ inner Scorer }

func (p plainScorer) Name() string { return "plain" }
func (p plainScorer) Score(q QueryStats, d DocStats, c CollectionStats) float64 {
	return p.inner.Score(q, d, c)
}

// TestPrepareFallsBackToScore: a scorer without Prepare is scored through
// its own Score and reports no bound (+Inf disables pruning).
func TestPrepareFallsBackToScore(t *testing.T) {
	qs := NewQueryStats([]string{"a", "b", "a"})
	cs := CollectionStats{N: 100, TotalLen: 5000,
		DF: map[string]int64{"a": 10, "b": 3}, TC: map[string]int64{"a": 30, "b": 4}}
	sc := plainScorer{NewBM25()}
	k := Prepare(sc, qs, cs)
	want := sc.Score(qs, DocStats{TF: map[string]int64{"a": 2, "b": 1}, Len: 40}, cs)
	if got := k.Score([]int64{2, 1}, 40); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback kernel Score %v != Score %v", got, want)
	}
	if b := k.TermBound(0, 5, 10); !math.IsInf(b, 1) {
		t.Fatalf("fallback TermBound = %v, want +Inf", b)
	}
}
