// Package csrank is a context-sensitive document-retrieval library: an
// implementation of "Context-sensitive Ranking for Document Retrieval"
// (Chen & Papakonstantinou, SIGMOD 2011).
//
// A query has the form "w1 w2 | m1 m2": the keywords before '|' are a
// conventional conjunctive keyword query, and the predicates after '|'
// specify a search context — the sub-collection of documents carrying all
// those predicates (e.g. MeSH annotations). Ranking statistics (document
// frequency, collection cardinality, collection length, term counts) are
// computed over the *context*, not the whole collection, so the same
// keyword query ranks differently for users in different domains.
//
// Computing per-context statistics at query time requires expensive
// inverted-list intersections and aggregations; the library accelerates
// them with materialized group-by views over a wide sparse table, chosen
// by a hybrid of graph decomposition and frequent-itemset mining so that
// every context larger than a threshold is covered by a view no larger
// than a size limit.
//
// Basic use:
//
//	b := csrank.NewBuilder()
//	for _, d := range docs {
//		b.Add(csrank.Document{Title: ..., Body: ..., Predicates: ...})
//	}
//	e, err := b.Build(csrank.BuildOptions{})
//	hits, stats, err := e.Search("pancreas leukemia | digestive_system", 20)
package csrank

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"csrank/internal/analysis"
	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/selection"
	"csrank/internal/views"
)

// Document is the unit of indexing.
type Document struct {
	// Title is stored and returned with hits.
	Title string
	// Body is additional searchable text (title and body together form
	// the content field the ranking statistics describe).
	Body string
	// Predicates are the controlled-vocabulary annotations usable in
	// context specifications (e.g. MeSH terms). Multi-word predicates
	// should be joined with underscores.
	Predicates []string
}

// Scorer selects the ranking model.
type Scorer string

// Available ranking models. All of them consume the same statistics
// bundle, so all become context-sensitive automatically.
const (
	// PivotedTFIDF is the paper's pivoted-normalization TF-IDF
	// (Formulas 3–4), the default.
	PivotedTFIDF Scorer = "pivoted-tfidf"
	// BM25 is Okapi BM25 (k1 = 1.2, b = 0.75).
	BM25 Scorer = "bm25"
	// DirichletLM is a Dirichlet-smoothed query-likelihood language
	// model (μ = 2000).
	DirichletLM Scorer = "dirichlet-lm"
	// CosineTFIDF is classic cosine-normalized TF-IDF.
	CosineTFIDF Scorer = "cosine-tfidf"
	// JelinekMercerLM is a Jelinek-Mercer-smoothed query-likelihood
	// language model (λ = 0.3).
	JelinekMercerLM Scorer = "jelinek-mercer-lm"
)

func (s Scorer) build() (ranking.Scorer, error) {
	switch s {
	case "", PivotedTFIDF:
		return ranking.NewPivotedTFIDF(), nil
	case BM25:
		return ranking.NewBM25(), nil
	case DirichletLM:
		return ranking.NewDirichletLM(), nil
	case CosineTFIDF:
		return ranking.NewCosineTFIDF(), nil
	case JelinekMercerLM:
		return ranking.NewJelinekMercerLM(), nil
	default:
		return nil, fmt.Errorf("csrank: unknown scorer %q", string(s))
	}
}

// BuildOptions configures Build. The zero value gives the paper's
// settings: T_C = 1% of the collection, T_V = 4096, pivoted TF-IDF.
type BuildOptions struct {
	// ContextThresholdFraction is T_C as a fraction of the collection
	// size: contexts at least this large are guaranteed view coverage.
	// Zero selects 0.01 (the paper's 1%).
	ContextThresholdFraction float64
	// ViewSizeLimit is T_V, the maximum non-empty tuple count per view.
	// Zero selects 4096.
	ViewSizeLimit int
	// Scorer selects the ranking model ("" = pivoted TF-IDF).
	Scorer Scorer
	// DisableViews skips view selection entirely; every contextual query
	// then runs the straightforward plan. Useful for baselines.
	DisableViews bool
	// SegmentSize is the posting-list skip-segment size (M0). Zero
	// selects 128.
	SegmentSize int
	// CacheContexts, when positive, memoizes collection statistics for up
	// to that many distinct contexts across queries.
	CacheContexts int
	// CostBasedPlanning consults a usable view only when its scan cost
	// undercuts the straightforward plan's cost bound, instead of always
	// preferring views.
	CostBasedPlanning bool
	// Parallelism bounds intra-query parallelism (result-set evaluation
	// overlapping statistics, per-keyword statistics fan-out, partitioned
	// scoring). 0 uses GOMAXPROCS; 1 runs fully sequentially. Rankings
	// are bit-identical at every setting.
	Parallelism int
	// Timeout bounds each query's wall-clock execution. When it expires
	// the engine returns what it has — partial or empty results flagged
	// Stats.Degraded — instead of an error. Zero means unbounded.
	Timeout time.Duration
	// StatsBudget bounds the context-statistics phase of contextual
	// queries; past it the engine ranks with approximate statistics and
	// flags the result Degraded. Zero means unbounded.
	StatsBudget time.Duration
	// DisablePruning turns off block-max dynamic pruning. By default
	// top-k scoring skips documents and containers whose score bound
	// proves they cannot rank; results are bit-identical either way, so
	// disabling it only restores exhaustive scoring (every conjunction
	// member scored, full result_size), e.g. as a reference to compare
	// the pruned path against.
	DisablePruning bool
	// MinShards (sharded engines only) is the fewest healthy shards for
	// which a partial answer is still served; when fewer survive a
	// query's fan-out, the query fails instead (fail-closed). ≤ 0 means
	// 1: answer as long as any shard survives. Set it to the shard count
	// to fail fast on any shard loss.
	MinShards int
	// ShardTimeout (sharded engines only) bounds each shard's work per
	// query phase; a shard that exceeds it is dropped from the query and
	// the surviving shards answer alone, flagged Degraded with the loss
	// attributed in Stats.ShardErrors. Zero disables the per-shard
	// timeout (Timeout still degrades in-shard).
	ShardTimeout time.Duration
	// Cache configures the serving-layer result cache (sharded engines
	// only; see CacheOptions). The zero value disables it.
	Cache CacheOptions
}

// CacheOptions configures the serving-layer result cache of a
// ShardedEngine: final merged results ([]Hit + Stats) memoized per
// (query, context, k, configuration), tagged with every input
// generation — shard serving generations, catalog versions, the live
// view's content sequence — so index rollover, catalog swaps, ingestion
// visibility and compaction each invalidate exactly the affected
// entries, and a hit is bit-identical to re-execution. Degraded,
// partial or failed results are never cached. Concurrent identical
// queries additionally coalesce onto a single execution (single
// flight), whether or not the result ends up cacheable.
type CacheOptions struct {
	// ResultBytes bounds the memory held by cached results across the
	// engine. 0 disables result caching and single-flight coalescing.
	ResultBytes int64
}

// cacheFingerprint folds every result-affecting runtime option into the
// cache key, so distinct configurations can never alias — belt and
// braces on top of the cache already being private to one engine
// instance whose configuration is immutable.
func (o BuildOptions) cacheFingerprint() string {
	return fmt.Sprintf("%s|views=%v|prune=%v|cost=%v", o.Scorer, o.DisableViews, !o.DisablePruning, o.CostBasedPlanning)
}

// coreOptions maps the runtime subset of BuildOptions onto the engine
// options every construction path (Build, BuildSharded, Open) shares.
func (o BuildOptions) coreOptions(scorer ranking.Scorer) core.Options {
	return core.Options{
		Scorer:        scorer,
		CacheContexts: o.CacheContexts,
		CostBased:     o.CostBasedPlanning,
		Parallelism:   o.Parallelism,
		Deadline:      o.Timeout,
		StatsBudget:   o.StatsBudget,
		Pruning:       !o.DisablePruning,
	}
}

// Builder accumulates documents for an Engine.
type Builder struct {
	docs []index.Document
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// indexDoc maps the public document onto the schema's fields — the one
// mapping batch builds and live ingestion both use.
func (d Document) indexDoc() index.Document {
	return index.Document{Fields: map[string]string{
		"title":   d.Title,
		"content": d.Title + " " + d.Body,
		"mesh":    strings.Join(d.Predicates, " "),
	}}
}

// Add queues one document; documents are numbered in insertion order
// starting at 0.
func (b *Builder) Add(d Document) {
	b.docs = append(b.docs, d.indexDoc())
}

// Len returns the number of queued documents.
func (b *Builder) Len() int { return len(b.docs) }

// Build indexes the queued documents, selects and materializes views, and
// returns a ready Engine.
func (b *Builder) Build(opts BuildOptions) (*Engine, error) {
	scorer, err := opts.Scorer.build()
	if err != nil {
		return nil, err
	}
	frac := opts.ContextThresholdFraction
	if frac == 0 {
		frac = 0.01
	}
	tv := opts.ViewSizeLimit
	if tv == 0 {
		tv = 4096
	}
	ix, err := index.BuildFrom(schema(), opts.SegmentSize, b.docs)
	if err != nil {
		return nil, err
	}
	var cat *views.Catalog
	var selTime time.Duration
	if !opts.DisableViews {
		tc := int64(frac * float64(ix.NumDocs()))
		if tc < 1 {
			tc = 1
		}
		t0 := time.Now()
		m, err := selection.Select(ix, selection.Config{TC: tc, TV: tv})
		if err != nil {
			return nil, err
		}
		cat = m.Catalog
		selTime = time.Since(t0)
	}
	return &Engine{
		engine:     core.New(ix, cat, opts.coreOptions(scorer)),
		selectTime: selTime,
	}, nil
}

func schema() index.Schema {
	return index.Schema{
		Fields: []index.FieldSpec{
			{Name: "title", Analyzer: analysis.Standard(), Stored: true},
			{Name: "content", Analyzer: analysis.Standard()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
}

// Hit is one ranked search result. The JSON tags are the wire format
// cmd/csserve responses use, so serving needs no shadow types.
type Hit struct {
	// DocID is the document's insertion-order number (the global number
	// for sharded engines).
	DocID int `json:"doc_id"`
	// Title is the document's stored title.
	Title string `json:"title"`
	// Score is the ranking score (higher is more relevant).
	Score float64 `json:"score"`
}

// Stats summarizes one query execution. For sharded engines it is the
// cluster-level aggregation of every shard's report (counters summed,
// flags ORed, Elapsed the fan-out maximum). The JSON tags are the wire
// format cmd/csserve responses use.
type Stats struct {
	// Plan is the strategy used: "conventional", "view",
	// "straightforward" — or "mixed" when a sharded execution used
	// different plans on different shards.
	Plan string `json:"plan"`
	// UsedView reports whether a materialized view answered the context
	// statistics (any shard, for sharded engines).
	UsedView bool `json:"used_view"`
	// ResultSize is the unranked result cardinality when scoring was
	// exhaustive. When block-max pruning served the query (the default;
	// see BuildOptions.DisablePruning) it counts only the conjunction
	// members the pruned loop visited: members inside containers the
	// bounds dismissed are provably outside the top k and never
	// enumerated, so the value is a lower bound that varies with k.
	ResultSize int `json:"result_size"`
	// ContextSize is |D_P| for contextual queries.
	ContextSize int64 `json:"context_size"`
	// CacheHit reports that context statistics came from the statistics
	// cache (only with BuildOptions.CacheContexts > 0).
	CacheHit bool `json:"cache_hit"`
	// Degraded reports that a timeout or statistics budget expired and
	// the hits are partial and/or ranked under approximate statistics.
	Degraded bool `json:"degraded"`
	// DegradedReason explains what was traded away (empty when Degraded
	// is false).
	DegradedReason string `json:"degraded_reason,omitempty"`
	// PrunedDocs counts candidate documents block-max pruning dismissed
	// without scoring (0 with BuildOptions.DisablePruning, or when the
	// query was not eligible: k ≤ 0 or a list without bound metadata).
	PrunedDocs int64 `json:"pruned_docs"`
	// PrunedContainers counts whole docID containers pruning dismissed
	// wholesale.
	PrunedContainers int64 `json:"pruned_containers"`
	// ShardErrors attributes every shard that did not contribute to a
	// sharded answer — shed by its circuit breaker or lost to a panic,
	// timeout, or corrupt block. Non-empty exactly when the hits are a
	// partial answer over the surviving shards (Degraded is then set).
	ShardErrors []ShardError `json:"shard_errors,omitempty"`
	// ResultCacheHit reports that the hits were served from the
	// serving-layer result cache (bit-identical to re-execution by the
	// cache's generation-tag contract) without touching the shards.
	ResultCacheHit bool `json:"result_cache_hit"`
	// SingleFlightShared reports that this query coalesced onto a
	// concurrent identical query's execution and shares its (clean,
	// cacheable) result.
	SingleFlightShared bool `json:"single_flight_shared,omitempty"`
	// Elapsed is the wall-clock execution time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// ErrTooFewShards fails a sharded query when fewer shards survive (or
// are admitted by their circuit breakers) than BuildOptions.MinShards
// allows — the fail-closed half of the partial-results policy.
var ErrTooFewShards = core.ErrTooFewSlices

// ShardError attributes the loss of one shard in a degraded sharded
// execution.
type ShardError struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Kind classifies the failure: "corruption", "panic", "timeout",
	// "error", or "breaker-open" (shed up front, never attempted).
	Kind string `json:"kind"`
	// Err is the underlying error text.
	Err string `json:"error"`
}

// Engine answers context-sensitive queries.
type Engine struct {
	engine     *core.Engine
	selectTime time.Duration
	// live is the writable cluster EnableIngest attaches; when set,
	// searches route through it so added documents are visible.
	live *ShardedEngine
}

// Search parses and evaluates q ("w1 w2 | m1 m2") with context-sensitive
// ranking, returning the top k hits. Queries without '|' are conventional
// keyword queries.
func (e *Engine) Search(q string, k int) ([]Hit, Stats, error) {
	return e.SearchCtx(context.Background(), q, k)
}

// SearchCtx is Search under a caller-supplied context: cancelling ctx
// aborts the query promptly with ctx's error, and a ctx deadline (like
// BuildOptions.Timeout) degrades to flagged partial results instead of
// failing. A panic anywhere in the query path fails only that query.
func (e *Engine) SearchCtx(ctx context.Context, q string, k int) ([]Hit, Stats, error) {
	if e.live != nil {
		return e.live.SearchCtx(ctx, q, k)
	}
	pq, err := query.Parse(q)
	if err != nil {
		return nil, Stats{}, err
	}
	res, st, err := e.engine.SearchCtx(ctx, pq, k)
	return e.convert(res), convertStats(st), err
}

// SearchConventional evaluates q with the conventional baseline: the
// context (if any) filters the result set but statistics come from the
// whole collection.
func (e *Engine) SearchConventional(q string, k int) ([]Hit, Stats, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, Stats{}, err
	}
	res, st, err := e.engine.SearchConventional(pq, k)
	return e.convert(res), convertStats(st), err
}

// SearchStraightforward evaluates a contextual q without consulting
// materialized views (the paper's straightforward plan), for comparison.
func (e *Engine) SearchStraightforward(q string, k int) ([]Hit, Stats, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, Stats{}, err
	}
	res, st, err := e.engine.SearchStraightforward(pq, k)
	return e.convert(res), convertStats(st), err
}

func (e *Engine) convert(rs []core.Result) []Hit {
	hits := make([]Hit, len(rs))
	for i, r := range rs {
		hits[i] = Hit{
			DocID: int(r.DocID),
			Title: e.engine.Index().StoredField(r.DocID, "title"),
			Score: r.Score,
		}
	}
	return hits
}

func convertStats(st core.ExecStats) Stats {
	return Stats{
		Plan:             string(st.Plan),
		UsedView:         st.UsedView,
		ResultSize:       st.ResultSize,
		ContextSize:      st.ContextSize,
		CacheHit:         st.CacheHit,
		Degraded:         st.Degraded,
		DegradedReason:   st.DegradedReason,
		PrunedDocs:       st.Pruning.DocsSkipped,
		PrunedContainers: st.Pruning.ContainersSkipped,
		Elapsed:          st.Elapsed,
	}
}

// Explain reports, without executing the query, which evaluation plan
// Search would choose and why: the analyzed keywords and context, the
// matched view (if any) with its size and per-keyword df-column coverage,
// and the straightforward plan's cost bound.
func (e *Engine) Explain(q string) (string, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return "", err
	}
	ex, err := e.engine.Explain(pq)
	if err != nil {
		return "", err
	}
	return ex.String(), nil
}

// NumDocs returns the collection size (including documents added live,
// when ingestion is enabled).
func (e *Engine) NumDocs() int {
	if e.live != nil {
		return e.live.NumDocs()
	}
	return e.engine.Index().NumDocs()
}

// NumViews returns the number of materialized views (0 when views are
// disabled).
func (e *Engine) NumViews() int {
	if e.engine.Catalog() == nil {
		return 0
	}
	return e.engine.Catalog().Len()
}

// ContextSize returns the number of documents matching a context
// specification (space-separated predicates).
func (e *Engine) ContextSize(context string) int64 {
	return e.engine.ContextSize(strings.Fields(context))
}

// SelectionTime returns how long view selection and materialization took
// during Build (zero for loaded or view-less engines).
func (e *Engine) SelectionTime() time.Duration { return e.selectTime }

// Save persists the engine (index + views) into dir, which must exist.
func (e *Engine) Save(dir string) error {
	if err := e.engine.Index().SaveFile(filepath.Join(dir, "index.gob")); err != nil {
		return err
	}
	if cat := e.engine.Catalog(); cat != nil {
		if err := cat.SaveFile(filepath.Join(dir, "views.gob")); err != nil {
			return err
		}
	}
	return nil
}

// Open loads an engine saved by Save. A missing views.gob yields an
// engine without view acceleration.
func Open(dir string, scorer Scorer) (*Engine, error) {
	return OpenWithOptions(dir, BuildOptions{Scorer: scorer})
}

// OpenWithOptions loads an engine saved by Save, honoring the runtime
// options (Scorer, CacheContexts, CostBasedPlanning, Parallelism); the
// build-time options are fixed by the persisted index and views.
func OpenWithOptions(dir string, opts BuildOptions) (*Engine, error) {
	sc, err := opts.Scorer.build()
	if err != nil {
		return nil, err
	}
	ix, err := index.LoadFile(filepath.Join(dir, "index.gob"))
	if err != nil {
		return nil, err
	}
	cat, err := views.LoadFile(filepath.Join(dir, "views.gob"))
	if err != nil {
		cat = nil // view-less engine
	}
	return &Engine{engine: core.New(ix, cat, opts.coreOptions(sc))}, nil
}
