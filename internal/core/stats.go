package core

import (
	"context"
	"errors"

	"csrank/internal/postings"
	"csrank/internal/ranking"
	"csrank/internal/views"
)

// contextStats computes S_c(D_P): from the statistics cache when one is
// configured, else from the smallest usable materialized view (with
// per-keyword intersection fallback), else with the straightforward
// Figure 3 plan. cat is the catalog snapshot the query loaded — the one
// pointer every view match and cache access of this execution uses, so
// statistics never mix catalog states. Freshly computed exact statistics
// are cached; a caller that later substitutes approximate statistics
// never reaches the store, so the cache only ever holds exact values.
func (e *Engine) contextStats(ctx context.Context, a analyzed, kw, preds []*postings.List, useViews bool, st *ExecStats, cat *views.Catalog) (ranking.CollectionStats, error) {
	if e.cache != nil {
		cs, cached, err := e.statsFromCache(ctx, a, kw, preds, useViews, st, cat)
		if err != nil {
			return ranking.CollectionStats{}, err
		}
		if cached {
			return cs, nil
		}
	}
	var cs ranking.CollectionStats
	var err error
	if useViews && cat != nil {
		if v := cat.Match(a.context); v != nil && e.viewWorthwhile(v, a, preds) {
			st.Plan = PlanView
			st.UsedView = true
			st.ViewSize = v.Size()
			cs, st.FallbackKeywords, err = e.statsFromView(ctx, v, a, kw, preds, &st.Stats)
			if err != nil {
				return ranking.CollectionStats{}, err
			}
		}
	}
	if !st.UsedView {
		cs, err = e.statsStraightforward(ctx, a, kw, preds, &st.Stats)
		if err != nil {
			return ranking.CollectionStats{}, err
		}
	}
	e.cacheStore(a, cs, cat)
	return cs, nil
}

// approximateStats assembles degraded-mode context statistics after the
// statistics budget expired before the exact S_c(D_P) computation
// finished. A usable view still answers in O(ViewSize) with no
// inverted-list work, so tracked keywords stay exact and only untracked
// ones are estimated — the whole-collection df/tc scaled to the context
// cardinality, clamped so a globally present keyword never reaches the
// scorer with a zero denominator. Without a usable view, the
// whole-collection statistics stand in unscaled: exactly the conventional
// baseline's ranking, which keeps every score finite and well-defined.
// The result is approximate by construction and is never cached.
func (e *Engine) approximateStats(a analyzed, useViews bool, st *ExecStats, cat *views.Catalog) ranking.CollectionStats {
	cs := ranking.CollectionStats{
		DF: make(map[string]int64, len(a.kwTerms)),
		TC: make(map[string]int64, len(a.kwTerms)),
	}
	if useViews && cat != nil {
		if v := cat.Match(a.context); v != nil {
			if ans, err := v.Answer(a.context, a.kwTerms, &st.Stats); err == nil {
				st.Plan = PlanView
				st.UsedView = true
				st.ViewSize = v.Size()
				ratio := float64(ans.Count) / float64(e.globalN)
				fallback := 0
				for _, w := range a.kwTerms {
					if v.TracksWord(w) {
						cs.DF[w] = ans.DF[w]
						cs.TC[w] = ans.TC[w]
						continue
					}
					fallback++
					cs.DF[w] = scaleEstimate(e.ix.DF(e.contentField, w), ratio, ans.Count)
					cs.TC[w] = scaleEstimate(e.ix.TotalTF(e.contentField, w), ratio, 0)
				}
				st.FallbackKeywords = fallback
				cs.N, cs.TotalLen = ans.Count, ans.Len
				return cs
			}
		}
	}
	// No usable view: whole-collection statistics, the conventional
	// baseline's ranking inputs.
	st.Plan = PlanStraightforward
	st.UsedView = false
	st.ViewSize = 0
	st.FallbackKeywords = len(a.kwTerms)
	cs.N, cs.TotalLen = e.globalN, e.globalLen
	for _, w := range a.kwTerms {
		cs.DF[w] = e.ix.DF(e.contentField, w)
		cs.TC[w] = e.ix.TotalTF(e.contentField, w)
	}
	return cs
}

// scaleEstimate scales a whole-collection count down to a context of
// ratio = |D_P| / N, clamping into [1, max] (when max > 0) so scorers
// never divide by zero for a keyword that exists globally.
func scaleEstimate(global int64, ratio float64, max int64) int64 {
	if global == 0 {
		return 0
	}
	est := int64(float64(global)*ratio + 0.5)
	if est < 1 {
		est = 1
	}
	if max > 0 && est > max {
		est = max
	}
	return est
}

// statsStraightforward computes S_c(D_P) with the Figure 3 plan: the
// context is materialized by intersecting the predicate lists; γ_count
// and γ_sum aggregations over it yield |D_P| and len(D_P); each keyword's
// df(w, D_P) and tc(w, D_P) come from intersecting L_w with the context
// lists. Its cost is bounded by O(Σ |L_m|) (Proposition 3.1).
func (e *Engine) statsStraightforward(ctx context.Context, a analyzed, kw, preds []*postings.List, st *postings.Stats) (ranking.CollectionStats, error) {
	cs := ranking.CollectionStats{
		DF: make(map[string]int64, len(a.kwTerms)),
		TC: make(map[string]int64, len(a.kwTerms)),
	}
	// L_m1 ∩ L_m2 with aggregations, fused: the count-only conjunction
	// kernel computes γ_count and γ_sum (|D_P| and len(D_P)) in one pass —
	// a word-AND + popcount over dense predicate containers — without
	// materializing the context.
	var err error
	cs.N, cs.TotalLen, err = postings.CountSumCtx(ctx, preds, e.docLen, st)
	if err != nil {
		return cs, err
	}
	// L_wi ∩ L_m1 ∩ L_m2 per keyword — each intersection is independent,
	// so keywordStatsBatch fans them out when parallelism is enabled.
	idxs := make([]int, len(a.kwTerms))
	for i := range idxs {
		idxs[i] = i
	}
	err = e.keywordStatsBatch(ctx, idxs, kw, preds, st, func(i int, df, tc int64) {
		cs.DF[a.kwTerms[i]] = df
		cs.TC[a.kwTerms[i]] = tc
	})
	return cs, err
}

// keywordContextStats computes df(w, D_P) and tc(w, D_P) by intersecting
// w's posting list with the context lists. The intersection starts from
// the most selective list (Intersect orders by length), so this is cheap
// when w is rare — the argument §6.2 makes for not storing df columns of
// infrequent keywords.
func (e *Engine) keywordContextStats(ctx context.Context, l *postings.List, preds []*postings.List, st *postings.Stats) (df, tc int64, err error) {
	// CountTFSum runs the same cursor-driven conjunction Intersect would,
	// but folds df and tc in as it goes instead of materializing the
	// DocID/TF slices.
	return postings.CountTFSumCtx(ctx, l, preds, st)
}

// statsFromView answers S_c(D_P) from a materialized view: |D_P|,
// len(D_P) and the df/tc of every tracked keyword come from one scan of
// the view's groups; untracked keywords (df < T_C) fall back to
// query-time intersections. Returns the statistics and the number of
// fallback keywords.
func (e *Engine) statsFromView(ctx context.Context, v *views.View, a analyzed, kw, preds []*postings.List, st *postings.Stats) (ranking.CollectionStats, int, error) {
	ans, err := v.AnswerCtx(ctx, a.context, a.kwTerms, st)
	if err != nil {
		return ranking.CollectionStats{}, 0, err
	}
	cs := ranking.CollectionStats{
		N:        ans.Count,
		TotalLen: ans.Len,
		DF:       ans.DF,
		TC:       ans.TC,
	}
	var fallback []int
	for i, w := range a.kwTerms {
		if !v.TracksWord(w) {
			fallback = append(fallback, i)
		}
	}
	if err := e.keywordStatsBatch(ctx, fallback, kw, preds, st, func(i int, df, tc int64) {
		cs.DF[a.kwTerms[i]] = df
		cs.TC[a.kwTerms[i]] = tc
	}); err != nil {
		return ranking.CollectionStats{}, len(fallback), err
	}
	return cs, len(fallback), nil
}

// viewWorthwhile applies the cost-based plan choice: with CostBased off,
// any usable view wins (the paper's policy); with it on, the view's scan
// cost must undercut the straightforward plan's Proposition 3.1 bound of
// (n+1)·Σ|L_m| — one context materialization plus one keyword-list
// intersection pass per keyword.
func (e *Engine) viewWorthwhile(v *views.View, a analyzed, preds []*postings.List) bool {
	if !e.costBased {
		return true
	}
	var straightBound int64
	for _, l := range preds {
		if l != nil {
			straightBound += int64(l.Len())
		}
	}
	straightBound *= int64(len(a.kwTerms) + 1)
	return int64(v.Size()) < straightBound
}

// statsFromCache assembles collection statistics from the statistics
// cache, computing and back-filling any keywords the cached entry lacks:
// view-tracked keywords are answered in one view scan, the rest by
// (possibly fanned-out) intersections. cached is false on a cache miss.
func (e *Engine) statsFromCache(ctx context.Context, a analyzed, kw, preds []*postings.List, useViews bool, st *ExecStats, cat *views.Catalog) (ranking.CollectionStats, bool, error) {
	n, totalLen, words, ok := e.cache.lookup(a.context, a.kwTerms, cat)
	if !ok {
		return ranking.CollectionStats{}, false, nil
	}
	st.CacheHit = true
	cs := ranking.CollectionStats{
		N:        n,
		TotalLen: totalLen,
		DF:       make(map[string]int64, len(a.kwTerms)),
		TC:       make(map[string]int64, len(a.kwTerms)),
	}
	var view *views.View
	if useViews && cat != nil {
		view = cat.Match(a.context)
	}
	var missTracked []string // view-tracked keywords, one Answer scan
	var missTrackedIdx []int // their positions, for the error fallback
	var missIntersect []int  // the rest, by intersection
	for i, w := range a.kwTerms {
		if v, hit := words[w]; hit {
			cs.DF[w] = v.df
			cs.TC[w] = v.tc
			continue
		}
		if view != nil && view.TracksWord(w) {
			missTracked = append(missTracked, w)
			missTrackedIdx = append(missTrackedIdx, i)
		} else {
			missIntersect = append(missIntersect, i)
		}
	}
	var filled map[string]dfTC
	record := func(w string, df, tc int64) {
		cs.DF[w] = df
		cs.TC[w] = tc
		if filled == nil {
			filled = make(map[string]dfTC)
		}
		filled[w] = dfTC{df: df, tc: tc}
	}
	if len(missTracked) > 0 {
		ans, err := view.AnswerCtx(ctx, a.context, missTracked, &st.Stats)
		switch {
		case err == nil:
			for _, w := range missTracked {
				record(w, ans.DF[w], ans.TC[w])
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return ranking.CollectionStats{}, false, err
		default:
			// Unusable view (e.g. concurrent catalog change): intersect.
			missIntersect = append(missIntersect, missTrackedIdx...)
		}
	}
	if err := e.keywordStatsBatch(ctx, missIntersect, kw, preds, &st.Stats, func(i int, df, tc int64) {
		record(a.kwTerms[i], df, tc)
	}); err != nil {
		return ranking.CollectionStats{}, false, err
	}
	if filled != nil {
		e.cache.store(a.context, n, totalLen, filled, cat)
	}
	return cs, true, nil
}

// cacheStore records freshly computed statistics for future queries in
// the same context running on the same catalog.
func (e *Engine) cacheStore(a analyzed, cs ranking.CollectionStats, cat *views.Catalog) {
	if e.cache == nil {
		return
	}
	words := make(map[string]dfTC, len(cs.DF))
	for _, w := range a.kwTerms {
		words[w] = dfTC{df: cs.DF[w], tc: cs.TC[w]}
	}
	e.cache.store(a.context, cs.N, cs.TotalLen, words, cat)
}

// ContextSize returns |D_P| for a context specification, answered from
// the smallest usable view when possible and by intersection otherwise.
// Workload generators use it to classify contexts against T_C.
func (e *Engine) ContextSize(context []string) int64 {
	var norm []string
	seen := map[string]bool{}
	for _, m := range context {
		for _, term := range e.predAn.Analyze(m) {
			if !seen[term] {
				seen[term] = true
				norm = append(norm, term)
			}
		}
	}
	if len(norm) == 0 {
		return e.globalN
	}
	if cat := e.catalog.Load(); cat != nil {
		if v := cat.Match(norm); v != nil {
			if ans, err := v.Answer(norm, nil, nil); err == nil {
				return ans.Count
			}
		}
	}
	lists := make([]*postings.List, len(norm))
	for i, m := range norm {
		lists[i] = e.ix.Postings(e.predField, m)
	}
	return postings.IntersectionSize(lists, nil)
}
