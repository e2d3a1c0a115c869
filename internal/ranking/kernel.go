package ranking

import "math"

// Kernel is a Scorer prepared for one query under one set of collection
// statistics: every subexpression of the formula that depends only on
// S_q and S_c (avgdl, per-term idf or collection probability, tq(w, Q)
// as a float, smoothing constants) is evaluated once, by the same
// expression the scorer's Score uses, and the per-document work is what
// remains. Score over a kernel therefore returns exactly — bit for bit —
// the value Score(q, d, c) returns for the same statistics, as long as
// the per-document operations keep Score's order, which every built-in
// kernel does.
//
// Term positions i index the query's distinct keywords in
// first-occurrence order (QueryStats.DistinctTerms), the order Score
// sums in. A kernel is immutable and safe for concurrent use.
type Kernel interface {
	// Score computes score(Q, d) from the document's per-term frequencies
	// tfs (aligned with the distinct keywords) and its length len(d).
	Score(tfs []int64, docLen int64) float64
	// TermBound is keyword i's summand ceiling over documents with
	// tf ≤ maxTF and len(d) ≥ minLen: bit-equal to
	// BoundedScorer.UpperBound over the single-term projection of the
	// query and statistics (keyword i alone, with its tq, df and tc).
	// The full bound is the sum of the per-term ceilings. Scorers with no
	// bound derivation return +Inf, which disables pruning.
	TermBound(i int, maxTF int32, minLen int32) float64
}

// PreparedScorer is a Scorer that can prepare per-query kernels. All five
// built-in scorers implement it; the engine scores through kernels and
// serves dynamic pruning only for scorers that do.
type PreparedScorer interface {
	Scorer
	Prepare(q QueryStats, c CollectionStats) Kernel
}

// Prepare returns s's kernel for the query, or — for a scorer with no
// Prepare — a kernel that evaluates Score itself through the map-based
// DocStats (one map per call) and reports no bound.
func Prepare(s Scorer, q QueryStats, c CollectionStats) Kernel {
	if p, ok := s.(PreparedScorer); ok {
		return p.Prepare(q, c)
	}
	return &scoreKernel{s: s, q: q, c: c, terms: q.DistinctTerms()}
}

// scoreKernel adapts a plain Scorer to the Kernel surface.
type scoreKernel struct {
	s     Scorer
	q     QueryStats
	c     CollectionStats
	terms []string
}

func (k *scoreKernel) Score(tfs []int64, docLen int64) float64 {
	tf := make(map[string]int64, len(k.terms))
	for i, w := range k.terms {
		tf[w] = tfs[i]
	}
	return k.s.Score(k.q, DocStats{TF: tf, Len: docLen}, k.c)
}

func (k *scoreKernel) TermBound(int, int32, int32) float64 { return math.Inf(1) }

// tfTableSize bounds the per-tf tables below: term frequencies under it
// read a precomputed value, larger ones compute it.
const tfTableSize = 256

// logLogTable[tf] = 1 + ln(1 + ln tf), Formula 3's sublinear tf weight;
// logTable[tf] = 1 + ln tf, the cosine model's. Both are evaluated by
// exactly the expression the scorers use, so a lookup and a computation
// give the same bits. Index 0 is never read (tf = 0 contributes nothing).
var logLogTable, logTable = func() (ll, l [tfTableSize]float64) {
	for tf := 1; tf < tfTableSize; tf++ {
		ll[tf] = 1 + math.Log(1+math.Log(float64(tf)))
		l[tf] = 1 + math.Log(float64(tf))
	}
	return ll, l
}()

func logLogTF(tf int64) float64 {
	if tf < tfTableSize {
		return logLogTable[tf]
	}
	return 1 + math.Log(1+math.Log(float64(tf)))
}

func logTF(tf int64) float64 {
	if tf < tfTableSize {
		return logTable[tf]
	}
	return 1 + math.Log(float64(tf))
}

// columns points each of cols at its own n-element window of one
// allocation: a kernel's per-term constants, in distinct-keyword order.
func columns(n int, cols ...*[]float64) {
	buf := make([]float64, n*len(cols))
	for j, c := range cols {
		*c = buf[j*n : (j+1)*n : (j+1)*n]
	}
}
