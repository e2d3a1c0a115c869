package ranking

import "math"

// This file adds two further instances of the generic ranking function f
// beyond the paper's pivoted formula, BM25 and Dirichlet LM: a classic
// cosine TF-IDF vector-space model and a Jelinek-Mercer-smoothed language
// model. They exist to demonstrate §2.2's claim concretely — *any* model
// built from Table 1's statistics becomes context-sensitive by swapping
// S_c(D) for S_c(D_P) — and back the scorer-sensitivity experiment.

// CosineTFIDF is the classic ltc-style vector-space model: log-weighted
// tf times idf, normalized by document length (a cheaper stand-in for
// full cosine normalization that needs only Table 1 statistics).
type CosineTFIDF struct{}

// NewCosineTFIDF returns the scorer.
func NewCosineTFIDF() *CosineTFIDF { return &CosineTFIDF{} }

// Name implements Scorer.
func (c *CosineTFIDF) Name() string { return "cosine-tfidf" }

// Score implements Scorer.
func (c *CosineTFIDF) Score(q QueryStats, d DocStats, cs CollectionStats) float64 {
	if d.Len <= 0 || cs.N <= 0 {
		return 0
	}
	norm := math.Sqrt(float64(d.Len))
	var score float64
	for _, w := range q.DistinctTerms() {
		tq := q.TQ[w]
		tf := float64(d.TF[w])
		if tf <= 0 {
			continue
		}
		df := float64(cs.DF[w])
		if df < 1 {
			df = 1
		}
		idf := math.Log(float64(cs.N)/df) + 1
		score += (1 + math.Log(tf)) * idf * float64(tq) / norm
	}
	return score
}

// Prepare implements PreparedScorer: tq and each term's idf are fixed
// for the query, and 1 + ln tf is tabled for small tf.
func (c *CosineTFIDF) Prepare(q QueryStats, cs CollectionStats) Kernel {
	terms := q.DistinctTerms()
	k := &cosineKernel{empty: cs.N <= 0}
	columns(len(terms), &k.tq, &k.idf)
	for i, w := range terms {
		df := float64(cs.DF[w])
		if df < 1 {
			df = 1
		}
		k.tq[i] = float64(q.TQ[w])
		k.idf[i] = math.Log(float64(cs.N)/df) + 1
	}
	return k
}

// cosineKernel is the cosine TF-IDF model prepared for one query. empty
// marks an empty collection, which scores everything 0.
type cosineKernel struct {
	empty   bool
	tq, idf []float64
}

// Score implements Kernel.
func (k *cosineKernel) Score(tfs []int64, docLen int64) float64 {
	if docLen <= 0 || k.empty {
		return 0
	}
	norm := math.Sqrt(float64(docLen))
	tfs = tfs[:len(k.idf)]
	var score float64
	for i, tf := range tfs {
		if tf <= 0 {
			continue
		}
		score += logTF(tf) * k.idf[i] * k.tq[i] / norm
	}
	return score
}

// JelinekMercerLM is the query-likelihood language model with linear
// interpolation smoothing: p(w|d) = (1-λ)·tf/len + λ·p(w|C).
type JelinekMercerLM struct {
	// Lambda is the collection-interpolation weight (typical 0.1–0.7;
	// smaller favors the document model).
	Lambda float64
}

// NewJelinekMercerLM returns the scorer with λ = 0.3.
func NewJelinekMercerLM() *JelinekMercerLM { return &JelinekMercerLM{Lambda: 0.3} }

// Name implements Scorer.
func (m *JelinekMercerLM) Name() string { return "jelinek-mercer-lm" }

// Score implements Scorer; like DirichletLM it is shifted by the
// collection model so absent terms contribute exactly zero.
func (m *JelinekMercerLM) Score(q QueryStats, d DocStats, c CollectionStats) float64 {
	if c.TotalLen <= 0 || d.Len <= 0 {
		return 0
	}
	var score float64
	for _, w := range q.DistinctTerms() {
		tq := q.TQ[w]
		tf := float64(d.TF[w])
		if tf <= 0 {
			continue
		}
		tc := float64(c.TC[w])
		if tc <= 0 {
			tc = 0.5
		}
		pwc := tc / float64(c.TotalLen)
		pwd := (1-m.Lambda)*tf/float64(d.Len) + m.Lambda*pwc
		score += float64(tq) * math.Log(pwd/(m.Lambda*pwc))
	}
	return score
}

// Prepare implements PreparedScorer: 1-λ, tq, each term's collection
// probability p(w|C) and λ·p(w|C) are fixed for the query.
func (m *JelinekMercerLM) Prepare(q QueryStats, c CollectionStats) Kernel {
	terms := q.DistinctTerms()
	k := &jmKernel{lambda: m.Lambda, oneMinusL: 1 - m.Lambda, empty: c.TotalLen <= 0}
	columns(len(terms), &k.tq, &k.pwc, &k.lpwc)
	for i, w := range terms {
		tc := float64(c.TC[w])
		if tc <= 0 {
			tc = 0.5
		}
		k.tq[i] = float64(q.TQ[w])
		k.pwc[i] = tc / float64(c.TotalLen)
		k.lpwc[i] = m.Lambda * k.pwc[i]
	}
	return k
}

// jmKernel is the Jelinek-Mercer likelihood prepared for one query. empty
// marks a collection of length 0, which scores everything 0.
type jmKernel struct {
	lambda, oneMinusL float64
	empty             bool
	tq, pwc, lpwc     []float64
}

// Score implements Kernel.
func (k *jmKernel) Score(tfs []int64, docLen int64) float64 {
	if k.empty || docLen <= 0 {
		return 0
	}
	tfs = tfs[:len(k.pwc)]
	var score float64
	for i, t := range tfs {
		tf := float64(t)
		if tf <= 0 {
			continue
		}
		pwd := k.oneMinusL*tf/float64(docLen) + k.lpwc[i]
		score += k.tq[i] * math.Log(pwd/k.lpwc[i])
	}
	return score
}
