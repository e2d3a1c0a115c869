// Package ranking implements the ranking model of the paper (§2.2): a
// generic ranking function f(S_q, S_d, S_c) over query-specific,
// document-specific and collection-specific statistics (Table 1). The same
// scorer runs in conventional mode (S_c computed over the whole collection
// D) and context-sensitive mode (S_c computed over the context D_P) — the
// only difference, exactly as in Formula 2, is which CollectionStats the
// caller passes in.
package ranking

// QueryStats holds the query-specific statistics S_q(Q) of Table 1.
type QueryStats struct {
	// Terms are the analyzed query keywords in order, with duplicates.
	Terms []string
	// TQ is tq(w, Q): the occurrence count of each distinct keyword.
	TQ map[string]int
	// distinct caches the distinct keywords in first-occurrence order.
	// Scorers iterate it (not the TQ map) so floating-point summation
	// order — and therefore tie-breaking — is deterministic across calls.
	distinct []string
}

// NewQueryStats derives S_q from the analyzed keyword list.
func NewQueryStats(terms []string) QueryStats {
	tq := make(map[string]int, len(terms))
	distinct := make([]string, 0, len(terms))
	for _, t := range terms {
		if tq[t] == 0 {
			distinct = append(distinct, t)
		}
		tq[t]++
	}
	return QueryStats{Terms: terms, TQ: tq, distinct: distinct}
}

// Len returns the query length len(Q).
func (q QueryStats) Len() int { return len(q.Terms) }

// Unique returns utc(Q), the distinct keyword count.
func (q QueryStats) Unique() int { return len(q.TQ) }

// DistinctTerms returns the distinct keywords in first-occurrence order.
// The slice is shared; callers must not modify it.
func (q QueryStats) DistinctTerms() []string {
	if q.distinct != nil {
		return q.distinct
	}
	// QueryStats built literally (not via NewQueryStats): derive once.
	seen := make(map[string]bool, len(q.TQ))
	out := make([]string, 0, len(q.TQ))
	for _, t := range q.Terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// DocStats holds the document-specific statistics S_d(d) needed to score
// one document: tf(w, d) for each query keyword, and len(d).
type DocStats struct {
	// TF maps each query keyword to its term count in the document.
	TF map[string]int64
	// Len is the document length len(d) in analyzed tokens.
	Len int64
}

// CollectionStats holds the collection-specific statistics S_c(·) of
// Table 1, computed either over D (conventional) or over D_P
// (context-sensitive). The engine fills DF/TC only for the query's
// keywords; N and TotalLen describe the whole (sub-)collection.
type CollectionStats struct {
	// N is the collection cardinality |D| (or |D_P|).
	N int64
	// TotalLen is the collection length len(D): Σ_d len(d).
	TotalLen int64
	// DF maps each query keyword w to df(w, D): the number of documents
	// containing w.
	DF map[string]int64
	// TC maps each query keyword w to tc(w, D): the total occurrence
	// count of w in the collection. Used by language-model smoothing.
	TC map[string]int64
	// UniqueTerms is utc(D), the dictionary size (0 if unknown; scorers
	// that need it fall back to a constant).
	UniqueTerms int64
}

// AvgDocLen returns avgdl = len(D)/|D| (Formula 3's pivot), or 0 for an
// empty collection.
func (c CollectionStats) AvgDocLen() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.TotalLen) / float64(c.N)
}

// Scorer is the ranking function f of Formulas 1–2: it combines the three
// statistics scopes into a single relevance score. Higher is better.
// Implementations must be safe for concurrent use. Score is the
// definition of the model; the engine evaluates it through a per-query
// Kernel (see PreparedScorer), which every built-in scorer provides.
type Scorer interface {
	// Name identifies the model in reports ("pivoted-tfidf", "bm25", ...).
	Name() string
	// Score computes score(Q, d) given the three statistics scopes.
	Score(q QueryStats, d DocStats, c CollectionStats) float64
}
