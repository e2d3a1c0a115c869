package ranking

import "math"

// DirichletLM is the query-likelihood language model with Dirichlet
// smoothing. It consumes the Table 1 statistic tc(w, D) (term count in the
// collection) — the statistic whose context-sensitive variant tc(w, D_P)
// the materialized views also cover. Smoothing quality degrades for tiny
// contexts, which is the effect §6.3 of the paper points out ("when the
// context size is too small, smoothing becomes harder").
type DirichletLM struct {
	// Mu is the Dirichlet pseudo-count (typical 2000; smaller values suit
	// short fields).
	Mu float64
}

// NewDirichletLM returns the scorer with μ = 2000.
func NewDirichletLM() *DirichletLM { return &DirichletLM{Mu: 2000} }

// Name implements Scorer.
func (m *DirichletLM) Name() string { return "dirichlet-lm" }

// Score implements Scorer. The score is the (rank-equivalent, shifted)
// query log-likelihood
//
//	Σ_w tq(w) · ln( (tf(w,d) + μ·p(w|C)) / (len(d) + μ) / p(w|C) )
//
// where p(w|C) = tc(w, C)/len(C). Dividing by p(w|C) inside the log keeps
// scores comparable across documents without changing the ranking and
// keeps absent-term contributions at exactly zero. Terms unseen in the
// collection are smoothed with a half-count so the model stays finite.
func (m *DirichletLM) Score(q QueryStats, d DocStats, c CollectionStats) float64 {
	if c.TotalLen <= 0 {
		return 0
	}
	var score float64
	for _, w := range q.DistinctTerms() {
		tq := q.TQ[w]
		tf := float64(d.TF[w])
		tc := float64(c.TC[w])
		if tc <= 0 {
			tc = 0.5
		}
		pwc := tc / float64(c.TotalLen)
		num := tf + m.Mu*pwc
		den := float64(d.Len) + m.Mu
		if num <= 0 || den <= 0 {
			continue
		}
		score += float64(tq) * math.Log(num/den/pwc)
	}
	return score
}

// Prepare implements PreparedScorer: tq, each term's collection
// probability p(w|C) and μ·p(w|C) are fixed for the query.
func (m *DirichletLM) Prepare(q QueryStats, c CollectionStats) Kernel {
	terms := q.DistinctTerms()
	k := &dirichletKernel{mu: m.Mu, empty: c.TotalLen <= 0}
	columns(len(terms), &k.tq, &k.pwc, &k.muPwc)
	for i, w := range terms {
		tc := float64(c.TC[w])
		if tc <= 0 {
			tc = 0.5
		}
		k.tq[i] = float64(q.TQ[w])
		k.pwc[i] = tc / float64(c.TotalLen)
		k.muPwc[i] = m.Mu * k.pwc[i]
	}
	return k
}

// dirichletKernel is the Dirichlet-smoothed likelihood prepared for one
// query. empty marks a collection of length 0, which scores everything 0.
type dirichletKernel struct {
	mu             float64
	empty          bool
	tq, pwc, muPwc []float64
}

// Score implements Kernel. Every keyword contributes, tf = 0 included:
// the smoothed model scores absent terms too.
func (k *dirichletKernel) Score(tfs []int64, docLen int64) float64 {
	if k.empty {
		return 0
	}
	den := float64(docLen) + k.mu
	tfs = tfs[:len(k.pwc)]
	var score float64
	for i, t := range tfs {
		num := float64(t) + k.muPwc[i]
		if num <= 0 || den <= 0 {
			continue
		}
		score += k.tq[i] * math.Log(num/den/k.pwc[i])
	}
	return score
}
