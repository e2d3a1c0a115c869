package ranking

import "math"

// BM25 is the Okapi BM25 probabilistic relevance model. The paper's
// framework (Formula 2) is model-agnostic — any f over (S_q, S_d, S_c)
// becomes context-sensitive by swapping the collection statistics — and
// BM25 uses exactly the statistics of Table 1: tf(w,d), len(d), avgdl,
// |D| and df(w,D).
type BM25 struct {
	// K1 controls term-frequency saturation (typical 1.2).
	K1 float64
	// B controls length normalization (typical 0.75).
	B float64
}

// NewBM25 returns BM25 with the conventional k1 = 1.2, b = 0.75.
func NewBM25() *BM25 { return &BM25{K1: 1.2, B: 0.75} }

// Name implements Scorer.
func (m *BM25) Name() string { return "bm25" }

// Score implements Scorer using the non-negative "plus-one" idf variant
// ln(1 + (N - df + 0.5)/(df + 0.5)), which is robust when df > N/2 — a
// situation that genuinely occurs inside narrow contexts.
func (m *BM25) Score(q QueryStats, d DocStats, c CollectionStats) float64 {
	avgdl := c.AvgDocLen()
	if avgdl <= 0 {
		return 0
	}
	var score float64
	for _, w := range q.DistinctTerms() {
		tq := q.TQ[w]
		tf := float64(d.TF[w])
		if tf <= 0 {
			continue
		}
		df := float64(c.DF[w])
		if df < 1 {
			df = 1
		}
		idf := math.Log(1 + (float64(c.N)-df+0.5)/(df+0.5))
		denom := tf + m.K1*(1-m.B+m.B*float64(d.Len)/avgdl)
		score += idf * (tf * (m.K1 + 1) / denom) * float64(tq)
	}
	return score
}

// Prepare implements PreparedScorer: avgdl, k1+1, 1-b, tq and each
// term's idf are fixed for the query; the length factor
// k1·(1-b+b·len(d)/avgdl) is computed once per document, not per term.
func (m *BM25) Prepare(q QueryStats, c CollectionStats) Kernel {
	terms := q.DistinctTerms()
	k := &bm25Kernel{k1: m.K1, b: m.B, k1p1: m.K1 + 1, oneMinusB: 1 - m.B, avgdl: c.AvgDocLen()}
	columns(len(terms), &k.tq, &k.idf)
	for i, w := range terms {
		df := float64(c.DF[w])
		if df < 1 {
			df = 1
		}
		k.tq[i] = float64(q.TQ[w])
		k.idf[i] = math.Log(1 + (float64(c.N)-df+0.5)/(df+0.5))
	}
	return k
}

// bm25Kernel is BM25 prepared for one query.
type bm25Kernel struct {
	k1, b, k1p1, oneMinusB, avgdl float64
	tq, idf                       []float64
}

// Score implements Kernel.
func (k *bm25Kernel) Score(tfs []int64, docLen int64) float64 {
	if k.avgdl <= 0 {
		return 0
	}
	lenPart := k.k1 * (k.oneMinusB + k.b*float64(docLen)/k.avgdl)
	tfs = tfs[:len(k.idf)]
	var score float64
	for i, t := range tfs {
		tf := float64(t)
		if tf <= 0 {
			continue
		}
		denom := tf + lenPart
		score += k.idf[i] * (tf * k.k1p1 / denom) * k.tq[i]
	}
	return score
}
