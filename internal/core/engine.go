// Package core implements the context-sensitive search engine — the
// paper's primary contribution. It evaluates queries Q_c = Q_k | P three
// ways:
//
//   - Conventional (the baseline Q_t = Q_k ∪ P of §6): the context terms
//     act as boolean filters and ranking uses whole-collection statistics.
//   - Straightforward context-sensitive (§3.1, Figure 3): the context is
//     materialized by inverted-list intersection and every
//     collection-specific statistic is computed by intersection +
//     aggregation at query time.
//   - View-based context-sensitive (§4): statistics are answered from the
//     smallest usable materialized view; only statistics the views do not
//     carry (df/tc of infrequent keywords) fall back to intersections,
//     which are cheap precisely because those keywords are infrequent
//     (§6.2).
//
// All three share one ranking function f(S_q, S_d, S_c) — only the
// statistics source differs, exactly as Formula 2 prescribes.
//
// Failure semantics: every Search variant has a *Ctx form threading a
// context.Context through the whole query path — the parallel workers,
// the statistics cache, and cooperative checkpoints inside the postings
// kernels. An expired deadline degrades gracefully (flagged partial or
// empty results, never an error); an explicit cancellation fails the
// query with ctx's error; a panic anywhere in the query path — worker
// goroutine or not — is recovered, converted to an error carrying the
// captured stack, and fails only that query. With no deadline, rankings
// are bit-identical to fully sequential execution at every parallelism.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/views"
)

// Plan names the evaluation strategy an execution used.
type Plan string

// The three evaluation strategies.
const (
	PlanConventional    Plan = "conventional"
	PlanView            Plan = "view"
	PlanStraightforward Plan = "straightforward"
)

// Options configures an Engine.
type Options struct {
	// Scorer is the ranking function; nil selects pivoted TF-IDF with the
	// paper's s = 0.2.
	Scorer ranking.Scorer
	// CacheContexts, when positive, memoizes collection statistics for up
	// to that many distinct contexts. Repeated queries inside the same
	// context then skip both the view scan and the straightforward
	// aggregation. Zero disables caching (the experiments run uncached so
	// they measure the paper's plans, not the cache).
	CacheContexts int
	// CostBased enables plan selection by the §3.2 cost model: a usable
	// view is consulted only when its scan cost (ViewSize) undercuts the
	// straightforward bound ((n+1)·Σ|L_m|, Proposition 3.1). Without it,
	// a usable view always wins — the paper's policy, which is right for
	// the covered-context regime it targets but can lose to the
	// straightforward plan on incidentally covered tiny contexts.
	CostBased bool
	// Parallelism bounds intra-query parallelism: the result-set
	// intersection overlaps the statistics computation, per-keyword df/tc
	// intersections fan out over a worker pool, and scoring partitions
	// the result set into concurrently scored chunks. 0 uses GOMAXPROCS;
	// 1 keeps today's fully sequential execution (the setting all §6
	// reproduction experiments run with). Rankings are bit-identical at
	// every setting.
	Parallelism int
	// Deadline bounds each query's wall-clock execution (layered onto
	// whatever deadline the caller's context already carries). When it
	// expires the engine degrades gracefully instead of failing: partial
	// top-k results (or an empty result when nothing was evaluated yet)
	// are returned flagged Degraded. Zero means no per-query deadline.
	Deadline time.Duration
	// StatsBudget bounds the context-statistics phase of contextual
	// queries. When it expires before the exact S_c(D_P) computation
	// finishes, the engine falls back to approximate statistics — a
	// usable view's O(ViewSize) answer when one exists, whole-collection
	// statistics otherwise — and flags the result Degraded, per the
	// paper's hybrid bounded-worst-case philosophy. Zero means no budget.
	StatsBudget time.Duration
	// Pruning enables block-max dynamic pruning: top-k scoring walks the
	// conjunction with bound-aware cursors and skips documents — or whole
	// 2^16-docID containers — whose score upper bound proves they cannot
	// enter the top k. The skipped work is the only difference: results
	// are bit-identical to exhaustive scoring at every parallelism. The
	// pruned path engages when k > 0, the scorer implements
	// ranking.BoundedScorer (all five built-ins do), and every keyword
	// list carries bound metadata (any index built or loaded by this
	// version); other queries fall back to exhaustive scoring. The §6
	// reproduction experiments pin it off so measured list costs match
	// the paper's cost model.
	Pruning bool
}

// Result is one ranked hit.
type Result struct {
	DocID uint32
	Score float64
}

// PhaseTimings breaks one execution's wall clock into its phases. With
// intra-query parallelism the result-set phase overlaps the statistics
// phase (ResultSet then measures the wait after statistics completed),
// so the parts need not sum to Elapsed.
type PhaseTimings struct {
	// Analyze is query analysis (tokenization, normalization).
	Analyze time.Duration
	// Stats is the context-statistics phase (cache, views, aggregation).
	Stats time.Duration
	// ResultSet is the unranked result-set intersection.
	ResultSet time.Duration
	// Score is ranking and top-k selection.
	Score time.Duration
}

// ExecStats reports what one query execution did and cost.
type ExecStats struct {
	// Stats accumulates the inverted-list and view-scan cost counters.
	postings.Stats
	// Plan is the strategy used.
	Plan Plan
	// UsedView reports whether a materialized view answered statistics.
	UsedView bool
	// ViewSize is the group count of the used view (0 if none).
	ViewSize int
	// FallbackKeywords counts query keywords whose df/tc had to be
	// computed by intersection because no view tracks them (or, in
	// degraded mode, estimated because the budget was gone).
	FallbackKeywords int
	// ResultSize is the unranked result cardinality. When the pruned
	// path ran (Pruning.Active) it counts only the conjunction members
	// the pruned loop visited: members inside skipped containers are
	// provably outside the top k but were never enumerated.
	ResultSize int
	// ContextSize is |D_P| (0 for conventional evaluation of a
	// context-free query).
	ContextSize int64
	// CacheHit reports that the context statistics came from the
	// statistics cache (possibly extended with per-keyword fills).
	CacheHit bool
	// Degraded reports that a deadline or statistics budget expired and
	// the results are partial and/or ranked under approximate
	// statistics. Degraded executions return a nil error: boundedness is
	// the contract, and the flag (plus DegradedReason) tells the caller
	// what was traded away.
	Degraded bool
	// DegradedReason explains each degradation, "; "-joined in the order
	// the phases hit their limits. Empty when Degraded is false.
	DegradedReason string
	// Pruning reports what dynamic pruning did (all-zero with Active
	// false when Options.Pruning was off or the query was ineligible).
	Pruning PruningStats
	// Phases is the per-phase wall-clock breakdown.
	Phases PhaseTimings
	// Elapsed is wall-clock execution time.
	Elapsed time.Duration
}

// degrade flags the execution as degraded, accumulating reasons.
func (st *ExecStats) degrade(reason string) {
	st.Degraded = true
	if st.DegradedReason == "" {
		st.DegradedReason = reason
	} else {
		st.DegradedReason += "; " + reason
	}
}

// Degrade flags the execution as degraded with the given reason,
// accumulating "; "-joined reasons. Exported for layers above the engine
// (the shard scatter-gather marks cluster-level partial results through
// it).
func (st *ExecStats) Degrade(reason string) { st.degrade(reason) }

// quarantineReason is the degradation reason attached when an execution
// touched quarantined (corrupt, empty-serving) mapped blocks.
const quarantineReason = "corrupt block(s) quarantined: affected containers skipped"

// noteQuarantine is deferred by every public query entry point: an
// execution that touched quarantined blocks silently skipped their
// containers, so its results are partial and must say so.
func noteQuarantine(st *ExecStats) {
	if st.QuarantineSkips > 0 {
		st.degrade(quarantineReason)
	}
}

// Engine evaluates context-sensitive queries over an index, optionally
// accelerated by a view catalog. It is safe for concurrent use,
// including SwapCatalog racing with in-flight queries.
type Engine struct {
	ix *index.Index
	// catalog may hold nil. It is atomic so a recovered or freshly
	// rolled catalog can replace the serving one mid-flight: each query
	// path loads the pointer once and sticks with that snapshot, so a
	// query never mixes statistics from two catalog states.
	catalog atomic.Pointer[views.Catalog]
	// catVersion counts catalog swaps. It is the engine's contribution to
	// serving-layer result-cache tags: a result computed under one
	// catalog state must never serve after SwapCatalog (plans and stats
	// differ even when scores do not), and the monotonic counter makes
	// the staleness check an equality test.
	catVersion atomic.Uint64
	scorer     ranking.Scorer

	contentField string
	predField    string
	contentAn    *analysis.Analyzer
	predAn       *analysis.Analyzer

	globalN   int64
	globalLen int64
	// docLens is the content field's length column (len(d) by DocID),
	// resolved once so scoring reads a slice, not a per-document map
	// lookup.
	docLens []int32

	costBased   bool
	cache       *statsCache // nil when disabled
	workers     int         // resolved Options.Parallelism (≥ 1)
	deadline    time.Duration
	statsBudget time.Duration
	pruning     bool
}

// New creates an engine. catalog may be nil (no view acceleration).
//
// When the environment variable CSRANK_FORCE_MAPPED is set to a
// non-empty value and ix is a heap index, the engine round-trips it
// through the format-v4 codec in memory and serves the mapped twin
// instead — the CI seam that drives every engine test over the mapped
// reader without touching the test code. Rankings are bit-identical by
// the mapped reader's contract, so this substitution is observable only
// through ExecStats.Pruning.ContainersSkippedUndecoded.
func New(ix *index.Index, catalog *views.Catalog, opts Options) *Engine {
	if os.Getenv("CSRANK_FORCE_MAPPED") != "" && !ix.Mapped() {
		if mx, err := index.MappedCopy(ix); err == nil {
			ix = mx
		}
		// On error keep the heap index: the seam must never turn a
		// working engine into a broken one.
	}
	scorer := opts.Scorer
	if scorer == nil {
		scorer = ranking.NewPivotedTFIDF()
	}
	schema := ix.Schema()
	e := &Engine{
		ix:           ix,
		scorer:       scorer,
		contentField: schema.ContentField,
		predField:    schema.PredicateField,
		contentAn:    ix.AnalyzerFor(schema.ContentField),
		predAn:       ix.AnalyzerFor(schema.PredicateField),
		globalN:      int64(ix.NumDocs()),
		globalLen:    ix.TotalFieldLen(schema.ContentField),
		docLens:      ix.FieldLens(schema.ContentField),
		costBased:    opts.CostBased,
		cache:        newStatsCache(opts.CacheContexts),
		workers:      resolveWorkers(opts.Parallelism),
		deadline:     opts.Deadline,
		statsBudget:  opts.StatsBudget,
		pruning:      opts.Pruning,
	}
	e.catalog.Store(catalog)
	return e
}

// docLen returns len(d) in the content field (0 past the column, as
// index.FieldLen).
func (e *Engine) docLen(d uint32) int64 {
	if int(d) < len(e.docLens) {
		return int64(e.docLens[d])
	}
	return 0
}

// Index returns the engine's index.
func (e *Engine) Index() *index.Index { return e.ix }

// Catalog returns the engine's view catalog (nil if none).
func (e *Engine) Catalog() *views.Catalog { return e.catalog.Load() }

// SwapCatalog atomically replaces the engine's view catalog and purges
// the statistics cache, whose entries describe the catalog state they
// were computed against. In-flight queries finish on the catalog they
// already loaded — both states are internally consistent — so a catalog
// recovered from snapshot + WAL replay can go live without a restart or
// a lock on the query path. An in-flight query on the old catalog may
// complete a cache store after the purge; such entries are tagged with
// the catalog they were computed against and never serve queries on the
// new one. Pass nil to disable view acceleration.
func (e *Engine) SwapCatalog(cat *views.Catalog) {
	e.catalog.Store(cat)
	e.catVersion.Add(1)
	e.cache.purge()
}

// CatalogVersion returns how many times SwapCatalog has run on this
// engine — a monotonic component of result-cache tags.
func (e *Engine) CatalogVersion() uint64 { return e.catVersion.Load() }

// Scorer returns the engine's ranking function.
func (e *Engine) Scorer() ranking.Scorer { return e.scorer }

// analyzed holds a query after analysis: distinct content terms (in first
// occurrence order), the full analyzed keyword stream (for tq), and the
// normalized context predicates.
type analyzed struct {
	kwTerms  []string // distinct
	kwStream []string // with duplicates, for S_q
	context  []string // normalized predicates
}

func (e *Engine) analyze(q query.Query) (analyzed, error) {
	if err := q.Validate(); err != nil {
		return analyzed{}, err
	}
	var a analyzed
	seen := map[string]bool{}
	for _, kw := range q.Keywords {
		for _, term := range e.contentAn.Analyze(kw) {
			a.kwStream = append(a.kwStream, term)
			if !seen[term] {
				seen[term] = true
				a.kwTerms = append(a.kwTerms, term)
			}
		}
	}
	if len(a.kwTerms) == 0 {
		return analyzed{}, fmt.Errorf("core: query %q has no indexable keywords", q)
	}
	seenCtx := map[string]bool{}
	for _, m := range q.Context {
		for _, term := range e.predAn.Analyze(m) {
			if !seenCtx[term] {
				seenCtx[term] = true
				a.context = append(a.context, term)
			}
		}
	}
	sort.Strings(a.context)
	return a, nil
}

// lists fetches the posting lists for the analyzed query. A nil list
// means the term is absent and the conjunctive result is empty.
func (e *Engine) lists(a analyzed) (kw, preds []*postings.List) {
	kw = make([]*postings.List, len(a.kwTerms))
	for i, w := range a.kwTerms {
		kw[i] = e.ix.Postings(e.contentField, w)
	}
	preds = make([]*postings.List, len(a.context))
	for i, m := range a.context {
		preds[i] = e.ix.Postings(e.predField, m)
	}
	return kw, preds
}

// evaluateResultSet computes the unranked result
// σ_P(D) ∩ σ_w1(D) ∩ … ∩ σ_wn(D) with the keyword lists first so the
// returned TFs align with a.kwTerms. On cancellation the partial prefix
// is returned together with ctx's error.
func evaluateResultSet(ctx context.Context, kw, preds []*postings.List, st *postings.Stats) (*postings.Intersection, error) {
	all := make([]*postings.List, 0, len(kw)+len(preds))
	all = append(all, kw...)
	all = append(all, preds...)
	return postings.IntersectCtx(ctx, all, st)
}

// applyDeadline derives the execution context for one query, layering
// the engine's per-query Deadline (when configured) onto the caller's
// context. The returned cancel must always be called.
func (e *Engine) applyDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.deadline > 0 {
		return context.WithTimeout(ctx, e.deadline)
	}
	return ctx, func() {}
}

// shortCircuit handles a context that is already dead before any list
// work happened: an expired deadline degrades to an empty flagged result
// (the boundedness contract), an explicit cancellation fails the query.
func shortCircuit(ctx context.Context, st *ExecStats) (stop bool, res []Result, err error) {
	cerr := ctx.Err()
	if cerr == nil {
		return false, nil, nil
	}
	if errors.Is(cerr, context.DeadlineExceeded) {
		st.degrade("deadline expired before evaluation: empty result")
		return true, []Result{}, nil
	}
	return true, nil, cerr
}

// degradeOnDeadline absorbs a deadline expiry into the degradation flag
// and reports whether it did; cancellations and panics pass through.
func degradeOnDeadline(err error, st *ExecStats, reason string) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		st.degrade(reason)
		return true
	}
	return false
}

// Search evaluates q with the engine's best strategy: conventional for
// context-free queries, view-based for contextual queries when a usable
// view exists, straightforward otherwise.
func (e *Engine) Search(q query.Query, k int) ([]Result, ExecStats, error) {
	return e.SearchCtx(context.Background(), q, k)
}

// SearchCtx is Search with cooperative cancellation and deadline-bounded
// degradation (see the package comment for the failure semantics).
func (e *Engine) SearchCtx(ctx context.Context, q query.Query, k int) ([]Result, ExecStats, error) {
	if !q.IsContextual() {
		return e.SearchConventionalCtx(ctx, q, k)
	}
	return e.SearchContextSensitiveCtx(ctx, q, k)
}

// SearchConventional evaluates the baseline Q_t = Q_k ∪ P: identical
// unranked result set, whole-collection statistics (context terms are
// boolean filters that "do not contribute to ranking scores").
func (e *Engine) SearchConventional(q query.Query, k int) ([]Result, ExecStats, error) {
	return e.SearchConventionalCtx(context.Background(), q, k)
}

// SearchConventionalCtx is SearchConventional with cancellation and
// deadline-bounded degradation.
func (e *Engine) SearchConventionalCtx(ctx context.Context, q query.Query, k int) (res []Result, st ExecStats, err error) {
	ctx, cancel := e.applyDeadline(ctx)
	defer cancel()
	defer recoverToError(&err, "conventional search")
	defer noteQuarantine(&st)
	return e.searchConventional(ctx, q, k)
}

// SearchContextSensitive evaluates Q_c = Q_k | P with context statistics,
// answering them from the smallest usable materialized view when the
// catalog has one and falling back to the straightforward plan otherwise.
func (e *Engine) SearchContextSensitive(q query.Query, k int) ([]Result, ExecStats, error) {
	return e.SearchContextSensitiveCtx(context.Background(), q, k)
}

// SearchContextSensitiveCtx is SearchContextSensitive with cancellation
// and deadline-bounded degradation.
func (e *Engine) SearchContextSensitiveCtx(ctx context.Context, q query.Query, k int) (res []Result, st ExecStats, err error) {
	ctx, cancel := e.applyDeadline(ctx)
	defer cancel()
	defer recoverToError(&err, "context-sensitive search")
	defer noteQuarantine(&st)
	return e.searchContextual(ctx, q, k, true)
}

// SearchStraightforward evaluates Q_c with the §3.1 plan unconditionally,
// never consulting views — the paper's "without materialized views"
// series.
func (e *Engine) SearchStraightforward(q query.Query, k int) ([]Result, ExecStats, error) {
	return e.SearchStraightforwardCtx(context.Background(), q, k)
}

// SearchStraightforwardCtx is SearchStraightforward with cancellation
// and deadline-bounded degradation.
func (e *Engine) SearchStraightforwardCtx(ctx context.Context, q query.Query, k int) (res []Result, st ExecStats, err error) {
	ctx, cancel := e.applyDeadline(ctx)
	defer cancel()
	defer recoverToError(&err, "straightforward search")
	defer noteQuarantine(&st)
	return e.searchContextual(ctx, q, k, false)
}

// searchConventional is the conventional plan under an already-derived
// execution context.
func (e *Engine) searchConventional(ctx context.Context, q query.Query, k int) ([]Result, ExecStats, error) {
	start := time.Now()
	var st ExecStats
	st.Plan = PlanConventional
	a, err := e.analyze(q)
	if err != nil {
		return nil, st, err
	}
	st.Phases.Analyze = time.Since(start)
	if stop, out, herr := shortCircuit(ctx, &st); stop {
		st.Elapsed = time.Since(start)
		return out, st, herr
	}
	kw, preds := e.lists(a)
	// Statistics first: they are O(#keywords) map fills from precomputed
	// aggregates, and the pruned path needs them before any scoring
	// decision (score upper bounds are functions of the statistics).
	tStats := time.Now()
	cs := ranking.CollectionStats{
		N:        e.globalN,
		TotalLen: e.globalLen,
		DF:       make(map[string]int64, len(a.kwTerms)),
		TC:       make(map[string]int64, len(a.kwTerms)),
	}
	for _, w := range a.kwTerms {
		cs.DF[w] = e.ix.DF(e.contentField, w)
		cs.TC[w] = e.ix.TotalTF(e.contentField, w)
	}
	st.Phases.Stats = time.Since(tStats)

	if e.prunedEligible(kw, preds, k) {
		tScore := time.Now()
		out, serr := e.prunedSearch(ctx, a, kw, preds, cs, k, &st)
		st.Phases.Score = time.Since(tScore)
		if serr != nil && !degradeOnDeadline(serr, &st, "deadline exceeded during pruned scoring: partial top-k") {
			st.Elapsed = time.Since(start)
			return nil, st, serr
		}
		st.Elapsed = time.Since(start)
		return out, st, nil
	}

	tRes := time.Now()
	res, rerr := evaluateResultSet(ctx, kw, preds, &st.Stats)
	st.Phases.ResultSet = time.Since(tRes)
	if rerr != nil && !degradeOnDeadline(rerr, &st, "deadline exceeded during result-set intersection: partial results") {
		st.Elapsed = time.Since(start)
		return nil, st, rerr
	}
	st.ResultSize = res.Len()

	tScore := time.Now()
	out, serr := e.score(ctx, a, res, cs, k)
	st.Phases.Score = time.Since(tScore)
	if serr != nil && !degradeOnDeadline(serr, &st, "deadline exceeded during scoring: partial top-k") {
		st.Elapsed = time.Since(start)
		return nil, st, serr
	}
	st.Elapsed = time.Since(start)
	return out, st, nil
}

// searchContextual is the context-sensitive plan under an
// already-derived execution context.
func (e *Engine) searchContextual(ctx context.Context, q query.Query, k int, useViews bool) ([]Result, ExecStats, error) {
	start := time.Now()
	var st ExecStats
	st.Plan = PlanStraightforward
	a, err := e.analyze(q)
	if err != nil {
		return nil, st, err
	}
	if len(a.context) == 0 {
		// No effective context: identical to conventional evaluation.
		return e.searchConventional(ctx, q, k)
	}
	st.Phases.Analyze = time.Since(start)
	if stop, out, herr := shortCircuit(ctx, &st); stop {
		st.Elapsed = time.Since(start)
		return out, st, herr
	}
	kw, preds := e.lists(a)
	// One catalog load per query: every view match and cache access of
	// this execution uses this snapshot, so a concurrent SwapCatalog can
	// never mix statistics from two catalog states.
	cat := e.catalog.Load()

	// The pruned path replaces the materialized result set with a
	// bound-aware walk, and its bounds are functions of the context
	// statistics S_c(D_P) — it cannot start until contextStats returns
	// (see ranking/bounds.go). So under pruning there is no result-set
	// phase to overlap with statistics and no worker to spawn.
	pruned := e.prunedEligible(kw, preds, k)

	// Phase overlap: the unranked result-set intersection and the context
	// statistics computation are data-independent, so with parallelism
	// enabled the intersection runs on its own panic-guarded goroutine
	// (with a private cost counter, merged below) while this goroutine
	// computes statistics. The channel is buffered so the worker never
	// blocks and an early error return leaks nothing.
	type resOut struct {
		res *postings.Intersection
		st  postings.Stats
		err error
	}
	var resCh chan resOut
	if e.workers > 1 && !pruned {
		resCh = make(chan resOut, 1)
		go func() {
			var out resOut
			defer func() {
				if r := recover(); r != nil {
					out.err = panicError("result-set worker", r)
				}
				resCh <- out
			}()
			out.res, out.err = evaluateResultSet(ctx, kw, preds, &out.st)
		}()
	}

	// Statistics phase, optionally under its own budget.
	tStats := time.Now()
	statsCtx, statsCancel := ctx, context.CancelFunc(nil)
	if e.statsBudget > 0 {
		statsCtx, statsCancel = context.WithTimeout(ctx, e.statsBudget)
	}
	cs, cerr := e.contextStats(statsCtx, a, kw, preds, useViews, &st, cat)
	if statsCancel != nil {
		statsCancel()
	}
	st.Phases.Stats = time.Since(tStats)
	if cerr != nil {
		switch {
		case ctx.Err() == nil && errors.Is(cerr, context.DeadlineExceeded):
			// Only the stats budget expired; the query itself is alive.
			// Fall back to approximate statistics — bounded work, flagged
			// result — per the hybrid philosophy.
			cs = e.approximateStats(a, useViews, &st, cat)
			st.degrade("stats budget exceeded: approximate statistics")
		case errors.Is(cerr, context.DeadlineExceeded):
			// The whole-query deadline died during statistics: nothing
			// trustworthy to rank with. Degrade to an empty result.
			st.degrade("deadline exceeded during statistics: empty result")
			if resCh != nil {
				out := <-resCh
				st.Stats.Add(out.st)
			}
			st.Elapsed = time.Since(start)
			return []Result{}, st, nil
		default:
			// Explicit cancellation, a worker panic, or an unusable view.
			st.Elapsed = time.Since(start)
			return nil, st, cerr
		}
	}
	st.ContextSize = cs.N

	if pruned {
		// Statistics are settled (exact or approximate — the bounds are
		// valid ceilings for whatever statistics the query ranks with):
		// walk the conjunction with bound-aware cursors directly.
		tScore := time.Now()
		out, serr := e.prunedSearch(ctx, a, kw, preds, cs, k, &st)
		st.Phases.Score = time.Since(tScore)
		if serr != nil && !degradeOnDeadline(serr, &st, "deadline exceeded during pruned scoring: partial top-k") {
			st.Elapsed = time.Since(start)
			return nil, st, serr
		}
		st.Elapsed = time.Since(start)
		return out, st, nil
	}

	tRes := time.Now()
	var res *postings.Intersection
	var rerr error
	if resCh != nil {
		out := <-resCh
		res, rerr = out.res, out.err
		st.Stats.Add(out.st)
	} else {
		res, rerr = evaluateResultSet(ctx, kw, preds, &st.Stats)
	}
	st.Phases.ResultSet = time.Since(tRes)
	if rerr != nil {
		if res == nil || !degradeOnDeadline(rerr, &st, "deadline exceeded during result-set intersection: partial results") {
			st.Elapsed = time.Since(start)
			return nil, st, rerr
		}
	}
	st.ResultSize = res.Len()

	tScore := time.Now()
	out, serr := e.score(ctx, a, res, cs, k)
	st.Phases.Score = time.Since(tScore)
	if serr != nil && !degradeOnDeadline(serr, &st, "deadline exceeded during scoring: partial top-k") {
		st.Elapsed = time.Since(start)
		return nil, st, serr
	}
	st.Elapsed = time.Since(start)
	return out, st, nil
}
