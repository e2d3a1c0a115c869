package ranking

import "math"

// PivotedTFIDF is the pivoted-normalization TF-IDF formula (Singhal's
// variant, Formula 3 of the paper), "considered to be one of the best
// performing vector space models":
//
//	score(Q, d) = Σ_{w∈Q}  (1 + ln(1 + ln(tf(w,d)))) /
//	                       ((1-s) + s·len(d)/avgdl)
//	               · tq(w, Q) · ln((|D|+1) / df(w, D))
//
// The context-sensitive version (Formula 4) is obtained by passing
// CollectionStats computed over D_P instead of D; the formula itself is
// identical.
type PivotedTFIDF struct {
	// S is the pivot slope; the paper uses the customary 0.2.
	S float64
}

// NewPivotedTFIDF returns the scorer with the paper's s = 0.2.
func NewPivotedTFIDF() *PivotedTFIDF { return &PivotedTFIDF{S: 0.2} }

// Name implements Scorer.
func (p *PivotedTFIDF) Name() string { return "pivoted-tfidf" }

// Score implements Scorer. Keywords with tf = 0 contribute nothing (they
// cannot occur in conjunctive results, but partial scoring is well
// defined); df is clamped to ≥ 1 so a stale statistic can never produce an
// infinite weight.
func (p *PivotedTFIDF) Score(q QueryStats, d DocStats, c CollectionStats) float64 {
	avgdl := c.AvgDocLen()
	if avgdl <= 0 {
		return 0
	}
	norm := (1 - p.S) + p.S*float64(d.Len)/avgdl
	if norm <= 0 {
		return 0
	}
	var score float64
	for _, w := range q.DistinctTerms() {
		tq := q.TQ[w]
		tf := d.TF[w]
		if tf <= 0 {
			continue
		}
		df := c.DF[w]
		if df < 1 {
			df = 1
		}
		tfPart := (1 + math.Log(1+math.Log(float64(tf)))) / norm
		idf := math.Log((float64(c.N) + 1) / float64(df))
		score += tfPart * float64(tq) * idf
	}
	return score
}

// Prepare implements PreparedScorer: avgdl, 1-s, tq and each term's idf
// are fixed for the query, and 1 + ln(1 + ln tf) is tabled for small tf.
func (p *PivotedTFIDF) Prepare(q QueryStats, c CollectionStats) Kernel {
	terms := q.DistinctTerms()
	k := &pivotedKernel{s: p.S, oneMinusS: 1 - p.S, avgdl: c.AvgDocLen()}
	columns(len(terms), &k.tq, &k.idf)
	for i, w := range terms {
		df := c.DF[w]
		if df < 1 {
			df = 1
		}
		k.tq[i] = float64(q.TQ[w])
		k.idf[i] = math.Log((float64(c.N) + 1) / float64(df))
	}
	return k
}

// pivotedKernel is Formula 3 prepared for one query.
type pivotedKernel struct {
	s, oneMinusS, avgdl float64
	tq, idf             []float64
}

// Score implements Kernel.
func (k *pivotedKernel) Score(tfs []int64, docLen int64) float64 {
	if k.avgdl <= 0 {
		return 0
	}
	norm := k.oneMinusS + k.s*float64(docLen)/k.avgdl
	if norm <= 0 {
		return 0
	}
	tfs = tfs[:len(k.idf)]
	var score float64
	for i, tf := range tfs {
		if tf <= 0 {
			continue
		}
		tfPart := logLogTF(tf) / norm
		score += tfPart * k.tq[i] * k.idf[i]
	}
	return score
}
