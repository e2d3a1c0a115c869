package csrank

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/segment"
	"csrank/internal/selection"
	"csrank/internal/shard"
	"csrank/internal/views"
)

// ShardedEngine answers context-sensitive queries over a
// document-partitioned cluster of engines. Every query fans out to all
// shards concurrently in two phases — partial statistics, then scoring
// under the merged global statistics — and the merged ranking is
// bit-identical to a single Engine holding the whole collection:
// sharding changes latency and capacity, never scores, order or
// tie-breaks. Each shard sits behind a generation-tracked serving slot,
// so index rollover swaps one shard at a time without downtime.
type ShardedEngine struct {
	cluster    *shard.Cluster
	selectTime time.Duration
	// live is the ingester behind an OpenLive engine; when set, searches
	// route through its view (shards + mutable segment) and Add accepts
	// documents.
	live *segment.Ingester
	// rcache is the serving-layer result cache plus single-flight table
	// (nil when CacheOptions disables it); cacheFP is the configuration
	// fingerprint folded into every key.
	rcache  *core.ResultCache
	cacheFP string
}

// attachCache wires the serving-layer result cache per opts.Cache. Every
// construction path (BuildSharded, OpenSharded, OpenLive,
// ShardedWithOptions) calls it so the cache's configuration fingerprint
// always matches the engines actually serving.
func (e *ShardedEngine) attachCache(opts BuildOptions) {
	e.rcache = core.NewResultCache(opts.Cache.ResultBytes)
	e.cacheFP = opts.cacheFingerprint()
}

// cacheKey is the result-cache key for a parsed query: configuration
// fingerprint, k, the keywords in query order (keyword order is
// score-neutral but plan-visible, so reordered queries get their own
// Stats), and the normalized (sorted, deduplicated) context.
func (e *ShardedEngine) cacheKey(pq query.Query, k int) string {
	var b strings.Builder
	b.WriteString(e.cacheFP)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(k))
	for _, w := range pq.Keywords {
		b.WriteByte(0)
		b.WriteString(w)
	}
	b.WriteByte(1)
	for _, m := range pq.NormalizedContext() {
		b.WriteByte(0)
		b.WriteString(m)
	}
	return b.String()
}

// cacheTag encodes every input generation a result depends on. All
// components are monotonic counters, so two equal tags prove that no
// shard swapped, no catalog changed, and no live document became
// visible in between — which is what makes serving a tagged entry
// bit-identical to re-executing the query.
func (e *ShardedEngine) cacheTag() string {
	var b strings.Builder
	if e.live != nil {
		// Live path: the view sequence covers both ingestion visibility and
		// compaction generations; per-slice catalog versions cover
		// SwapExtend on the underlying engines.
		v := e.live.View()
		b.WriteString("live:")
		b.WriteString(strconv.FormatUint(v.Seq, 10))
		for _, sl := range v.Slices {
			b.WriteByte(';')
			b.WriteString(strconv.FormatUint(sl.Eng.CatalogVersion(), 10))
		}
		return b.String()
	}
	for i := 0; i < e.cluster.NumShards(); i++ {
		eng, gen := e.cluster.Engine(i)
		b.WriteString(strconv.FormatUint(gen, 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(eng.CatalogVersion(), 10))
		b.WriteByte(';')
	}
	return b.String()
}

// cachedResult is the opaque value a ResultCache entry holds: the final
// merged ranking plus the aggregate and per-shard statistics it was
// computed with. The stored slices belong to the cache; every consumer
// gets copies via copyOut.
type cachedResult struct {
	hits []Hit
	agg  Stats
	per  []Stats
}

// sizeBytes estimates the entry's resident size for the byte budget.
func (r *cachedResult) sizeBytes() int64 {
	n := int64(128)
	for i := range r.hits {
		n += 48 + int64(len(r.hits[i].Title))
	}
	n += int64(1+len(r.per)) * 256
	return n
}

// copyOut returns mutation-safe copies of the slices; the aggregate
// Stats is a value (ShardErrors is always empty on cacheable results,
// so the shallow copy shares nothing).
func (r *cachedResult) copyOut() ([]Hit, Stats, []Stats) {
	hits := make([]Hit, len(r.hits))
	copy(hits, r.hits)
	per := make([]Stats, len(r.per))
	copy(per, r.per)
	return hits, r.agg, per
}

// BuildSharded indexes the queued documents hash-partitioned over the
// given number of shards, running view selection independently per
// shard (T_C scales with the shard's size, so the fractional coverage
// guarantee is preserved), and returns a ready ShardedEngine.
// BuildSharded(1, opts) ranks identically to Build(opts).
func (b *Builder) BuildSharded(shards int, opts BuildOptions) (*ShardedEngine, error) {
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
	parts, globals, err := shard.Split(b.docs, shards)
	if err != nil {
		return nil, err
	}
	var selTime time.Duration
	engines := make([]*core.Engine, shards)
	for i := range parts {
		ix, err := index.BuildFrom(schema(), opts.SegmentSize, parts[i])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		var cat *views.Catalog
		if !opts.DisableViews {
			tc := int64(frac * float64(ix.NumDocs()))
			if tc < 1 {
				tc = 1
			}
			t0 := time.Now()
			m, err := selection.Select(ix, selection.Config{TC: tc, TV: tv})
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			cat = m.Catalog
			selTime += time.Since(t0)
		}
		engines[i] = core.New(ix, cat, opts.coreOptions(scorer))
	}
	cluster, err := shard.NewCluster(engines, globals)
	if err != nil {
		return nil, err
	}
	cluster.SetPolicy(opts.shardPolicy())
	se := &ShardedEngine{cluster: cluster, selectTime: selTime}
	se.attachCache(opts)
	return se, nil
}

// shardPolicy maps the sharding subset of BuildOptions onto the
// cluster's failure policy.
func (o BuildOptions) shardPolicy() shard.Policy {
	return shard.Policy{MinShards: o.MinShards, ShardTimeout: o.ShardTimeout}
}

// Sharded wraps an existing single engine as a one-shard cluster, so
// callers (cmd/csserve) can serve single and sharded data directories
// through one code path. The wrapper ranks identically to the engine.
func (e *Engine) Sharded() (*ShardedEngine, error) {
	n := e.engine.Index().NumDocs()
	cluster, err := shard.NewCluster([]*core.Engine{e.engine}, shard.GlobalMaps(n, 1))
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{cluster: cluster, selectTime: e.selectTime}, nil
}

// ShardedWithOptions is Sharded with the caching subset of opts applied
// to the wrapper (the engine's own runtime options are unchanged): the
// way cmd/csserve enables the result cache over a single-engine data
// directory.
func (e *Engine) ShardedWithOptions(opts BuildOptions) (*ShardedEngine, error) {
	se, err := e.Sharded()
	if err != nil {
		return nil, err
	}
	se.attachCache(opts)
	return se, nil
}

// Save persists the cluster under dir (which must exist): one
// shard-%03d engine directory per shard plus a cluster.json manifest.
func (e *ShardedEngine) Save(dir string) error { return e.cluster.Save(dir, false) }

// SaveMapped is Save with the format-v4 paged index layout, which
// OpenSharded maps lazily — the right choice when N shards must not
// multiply resident heap.
func (e *ShardedEngine) SaveMapped(dir string) error { return e.cluster.Save(dir, true) }

// IsSharded reports whether dir holds a sharded data directory (a
// cluster manifest) as written by ShardedEngine.Save, as opposed to a
// single-engine directory written by Engine.Save.
func IsSharded(dir string) bool { return shard.IsSharded(dir) }

// OpenSharded loads a cluster saved by ShardedEngine.Save, honoring the
// runtime options (Scorer, CacheContexts, CostBasedPlanning,
// Parallelism, Timeout, StatsBudget, DisablePruning) on every shard.
func OpenSharded(dir string, opts BuildOptions) (*ShardedEngine, error) {
	sc, err := opts.Scorer.build()
	if err != nil {
		return nil, err
	}
	cluster, err := shard.Open(dir, opts.coreOptions(sc))
	if err != nil {
		return nil, err
	}
	cluster.SetPolicy(opts.shardPolicy())
	se := &ShardedEngine{cluster: cluster}
	se.attachCache(opts)
	return se, nil
}

// Search parses and evaluates q ("w1 w2 | m1 m2") over all shards,
// returning the global top k with cluster-aggregated statistics.
func (e *ShardedEngine) Search(q string, k int) ([]Hit, Stats, error) {
	return e.SearchCtx(context.Background(), q, k)
}

// SearchCtx is Search under a caller-supplied context: cancelling ctx
// aborts the fan-out promptly, and a deadline degrades shards to
// flagged partial results instead of failing, exactly as on a single
// engine.
func (e *ShardedEngine) SearchCtx(ctx context.Context, q string, k int) ([]Hit, Stats, error) {
	hits, agg, _, err := e.searchDetailed(ctx, q, k)
	return hits, agg, err
}

// SearchDetailed is SearchCtx that additionally returns each shard's
// own statistics report (index = shard), for serving telemetry.
func (e *ShardedEngine) SearchDetailed(ctx context.Context, q string, k int) ([]Hit, Stats, []Stats, error) {
	return e.searchDetailed(ctx, q, k)
}

func (e *ShardedEngine) searchDetailed(ctx context.Context, q string, k int) ([]Hit, Stats, []Stats, error) {
	return e.SearchGated(ctx, q, k, nil)
}

// SearchGated is SearchDetailed with serving-layer caching, single-flight
// coalescing, and an admission gate. The gate — nil means admit freely —
// is invoked only when the query actually executes against the shards;
// result-cache hits and coalesced followers never pay for an admission
// slot. When the gate returns an error the query is rejected with it;
// otherwise its release func is called when execution finishes.
//
// A cache hit sets Stats.ResultCacheHit and is bit-identical to
// re-execution (modulo Elapsed, which reports the cache-hit latency): the
// entry's generation tag matching the current serving state proves no
// input changed since it was computed. A coalesced follower sets
// Stats.SingleFlightShared. Degraded, partial, or errored executions are
// never cached and never shared.
func (e *ShardedEngine) SearchGated(ctx context.Context, q string, k int, gate func(context.Context) (func(), error)) ([]Hit, Stats, []Stats, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	if e.rcache == nil {
		if gate != nil {
			release, err := gate(ctx)
			if err != nil {
				return nil, Stats{}, nil, err
			}
			defer release()
		}
		return e.searchParsed(ctx, pq, k)
	}
	key := e.cacheKey(pq, k)
	start := time.Now()
	if v, ok := e.rcache.Lookup(key, e.cacheTag()); ok {
		hits, agg, per := v.(*cachedResult).copyOut()
		agg.ResultCacheHit = true
		agg.Elapsed = time.Since(start)
		return hits, agg, per, nil
	}
	f, leader := e.rcache.Join(key)
	if !leader {
		v, ok, werr := f.Wait(ctx)
		if werr != nil {
			return nil, Stats{}, nil, werr
		}
		if ok {
			e.rcache.NoteCoalesced()
			hits, agg, per := v.(*cachedResult).copyOut()
			agg.SingleFlightShared = true
			agg.Elapsed = time.Since(start)
			return hits, agg, per, nil
		}
		// The leader's outcome wasn't shareable (error, degraded, or a
		// generation moved mid-execution): execute independently.
		return e.executeAndStore(ctx, pq, k, key, nil, gate)
	}
	return e.executeAndStore(ctx, pq, k, key, f, gate)
}

// executeAndStore runs a real backend execution for key: pass the gate,
// execute, then — only for a clean result whose generation tag did not
// move during execution — store it and share it with coalesced
// followers. As single-flight leader (f non-nil) it is obligated to
// Finish on every path, including gate rejection and panics.
func (e *ShardedEngine) executeAndStore(ctx context.Context, pq query.Query, k int, key string, f *core.Flight, gate func(context.Context) (func(), error)) ([]Hit, Stats, []Stats, error) {
	finished := false
	if f != nil {
		defer func() {
			if !finished {
				e.rcache.Finish(key, f, nil, false)
			}
		}()
	}
	if gate != nil {
		release, err := gate(ctx)
		if err != nil {
			return nil, Stats{}, nil, err
		}
		defer release()
	}
	tagBefore := e.cacheTag()
	hits, agg, per, err := e.searchParsed(ctx, pq, k)
	var r *cachedResult
	if err == nil && !agg.Degraded && len(agg.ShardErrors) == 0 {
		// Recompute the tag after execution: if any generation moved while
		// we ran, the result may mix old and new state and must not be
		// remembered under either tag.
		if tag := e.cacheTag(); tag == tagBefore {
			r = &cachedResult{hits: hits, agg: agg, per: per}
			e.rcache.Store(key, tag, r, r.sizeBytes())
		}
	}
	if f != nil {
		finished = true
		if r != nil {
			e.rcache.Finish(key, f, r, true)
		} else {
			e.rcache.Finish(key, f, nil, false)
		}
	}
	if r != nil {
		// The stored slices now belong to the cache; hand back copies.
		h, _, p := r.copyOut()
		return h, agg, p, nil
	}
	return hits, agg, per, err
}

func (e *ShardedEngine) searchParsed(ctx context.Context, pq query.Query, k int) ([]Hit, Stats, []Stats, error) {
	if e.live != nil {
		return e.searchLive(ctx, pq, k)
	}
	res, sum, err := e.cluster.Search(ctx, pq, k)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	hits := make([]Hit, len(res))
	for i, h := range res {
		hits[i] = Hit{
			DocID: int(h.Global),
			Title: sum.Engines[h.Shard].Index().StoredField(h.Local, "title"),
			Score: h.Score,
		}
	}
	agg := convertStats(sum.Agg)
	// The cluster-level wall clock (fan-out + both phases + merge), not
	// the slowest shard's own clock, is what a serving SLO measures.
	agg.Elapsed = sum.Elapsed
	for _, f := range sum.Failed {
		agg.ShardErrors = append(agg.ShardErrors, ShardError{Shard: f.Shard, Kind: f.Kind, Err: f.Err})
	}
	perShard := make([]Stats, len(sum.PerShard))
	for i, st := range sum.PerShard {
		perShard[i] = convertStats(st)
	}
	return hits, agg, perShard, nil
}

// searchLive evaluates a parsed query over the live view — the shard
// slices plus the mutable segment — with the same two-phase rank-safe
// merge the cluster path uses; the extra per-slice report (when the
// segment is non-empty) is appended after the shards'.
func (e *ShardedEngine) searchLive(ctx context.Context, pq query.Query, k int) ([]Hit, Stats, []Stats, error) {
	start := time.Now()
	res, per, view, err := e.live.Search(ctx, pq, k)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	hits := make([]Hit, len(res))
	for i, h := range res {
		hits[i] = Hit{
			DocID: int(h.Global),
			Title: view.Slices[h.Slice].Eng.Index().StoredField(h.Local, "title"),
			Score: h.Score,
		}
	}
	agg := convertStats(core.MergeStats(per...))
	agg.Elapsed = time.Since(start)
	perSlice := make([]Stats, len(per))
	for i, st := range per {
		perSlice[i] = convertStats(st)
	}
	return hits, agg, perSlice, nil
}

// NumShards returns the number of document partitions.
func (e *ShardedEngine) NumShards() int { return e.cluster.NumShards() }

// NumDocs returns the logical collection size across all shards,
// including live documents not yet compacted.
func (e *ShardedEngine) NumDocs() int {
	if e.live != nil {
		return e.live.NumDocs()
	}
	return e.cluster.NumDocs()
}

// NumViews returns the total number of materialized views across all
// shards (0 when views are disabled).
func (e *ShardedEngine) NumViews() int {
	total := 0
	for i := 0; i < e.cluster.NumShards(); i++ {
		eng, _ := e.cluster.Engine(i)
		if cat := eng.Catalog(); cat != nil {
			total += cat.Len()
		}
	}
	return total
}

// Generations returns each shard's current serving generation.
func (e *ShardedEngine) Generations() []uint64 { return e.cluster.Generations() }

// ShardHealth is one shard's entry in a ClusterHealth report. The JSON
// tags are the wire format cmd/csserve's /healthz uses.
type ShardHealth struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Generation is the shard's current serving generation.
	Generation uint64 `json:"generation"`
	// State is the shard's circuit-breaker state: "closed" (healthy),
	// "open" (shedding), or "half-open" (probing recovery).
	State string `json:"state"`
	// ConsecutiveFailures counts failures since the last success while
	// closed.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Trips counts closed→open transitions over the breaker's lifetime.
	Trips int64 `json:"trips"`
	// Recoveries counts half-open→closed transitions.
	Recoveries int64 `json:"recoveries"`
	// RetryInMs is how long until an open breaker probes again (0 unless
	// open).
	RetryInMs int64 `json:"retry_in_ms"`
}

// ClusterHealth reports the cluster's serving health: per-shard breaker
// states, how many shards admission would accept a query for right now,
// the policy floor, and the corrupt-block quarantine count.
type ClusterHealth struct {
	NumShards         int           `json:"num_shards"`
	AvailableShards   int           `json:"available_shards"`
	MinShards         int           `json:"min_shards"`
	QuarantinedBlocks int64         `json:"quarantined_blocks"`
	Shards            []ShardHealth `json:"shards"`
}

// Healthy reports whether the cluster can currently serve within
// policy: at least max(1, MinShards) shards available.
func (h ClusterHealth) Healthy() bool {
	min := h.MinShards
	if min < 1 {
		min = 1
	}
	return h.AvailableShards >= min
}

// Health snapshots the cluster's serving health without mutating any
// breaker state.
func (e *ShardedEngine) Health() ClusterHealth {
	ch := e.cluster.Health()
	pol := e.cluster.Policy()
	out := ClusterHealth{
		NumShards:         ch.NumShards,
		AvailableShards:   ch.Available,
		MinShards:         pol.MinShards,
		QuarantinedBlocks: e.cluster.Quarantined(),
		Shards:            make([]ShardHealth, len(ch.Shards)),
	}
	for i, s := range ch.Shards {
		out.Shards[i] = ShardHealth{
			Shard:               s.Shard,
			Generation:          s.Generation,
			State:               string(s.State),
			ConsecutiveFailures: s.ConsecutiveFailures,
			Trips:               s.Trips,
			Recoveries:          s.Recoveries,
			RetryInMs:           s.RetryIn.Milliseconds(),
		}
	}
	return out
}

// CanServe reports whether a query would currently be admitted: at
// least max(1, MinShards) shards have a closed (or probing-ready)
// circuit breaker. Serving front ends use it to shed before paying for
// a doomed fan-out.
func (e *ShardedEngine) CanServe() bool { return e.cluster.CanServe() }

// QuarantinedBlocks returns the total corrupt blocks quarantined across
// all shards (always 0 for heap-resident indexes).
func (e *ShardedEngine) QuarantinedBlocks() int64 { return e.cluster.Quarantined() }

// ArmFault injects a chaos fault into one shard's query execution until
// disarmed: delay stalls each phase (a delay past ShardTimeout
// manifests as a shard timeout), panicFault crashes the shard's worker,
// corrupt simulates a corrupt-block read escaping decode. A chaos-drill
// and test seam — never arm it on a production cluster.
func (e *ShardedEngine) ArmFault(s int, delay time.Duration, panicFault, corrupt bool) error {
	return e.cluster.ArmFault(s, shard.Fault{Delay: delay, Panic: panicFault, Corrupt: corrupt})
}

// DisarmFaults removes every armed chaos fault.
func (e *ShardedEngine) DisarmFaults() { e.cluster.DisarmFaults() }

// SelectionTime returns the total per-shard view selection and
// materialization time during BuildSharded (zero for loaded engines).
func (e *ShardedEngine) SelectionTime() time.Duration { return e.selectTime }

// ResultCacheStats is a counter snapshot of the serving-layer result
// cache. The JSON tags are the wire format cmd/csserve's /statsz uses.
type ResultCacheStats struct {
	// Entries and Bytes describe the resident population; Budget is the
	// configured byte bound.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
	// Hits and Misses count lookups; Stores counts insertions and
	// overwrites.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stores int64 `json:"stores"`
	// Evictions counts byte-pressure removals; Invalidations counts
	// entries dropped because an input generation moved.
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Coalesced counts followers served by another query's execution.
	Coalesced int64 `json:"coalesced"`
}

// ResultCacheStats snapshots the result cache (zeros when disabled).
func (e *ShardedEngine) ResultCacheStats() ResultCacheStats {
	st := e.rcache.Stats()
	return ResultCacheStats{
		Entries:       st.Entries,
		Bytes:         st.Bytes,
		Budget:        st.Budget,
		Hits:          st.Hits,
		Misses:        st.Misses,
		Stores:        st.Stores,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
		Coalesced:     st.Coalesced,
	}
}

// BlockCacheStats is a counter snapshot of the decoded-block caches
// under this engine, summed across shards (all zeros for heap-resident
// indexes, which do not bound decoded blocks). The JSON tags are the
// wire format cmd/csserve's /statsz uses.
type BlockCacheStats struct {
	Budget     int64 `json:"budget"`
	Used       int64 `json:"used"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Insertions int64 `json:"insertions"`
	Evictions  int64 `json:"evictions"`
	// Promotions counts probationary blocks that graduated to the main
	// queue on reuse; GhostHits counts re-decoded blocks recognized by
	// the ghost list (the S3-FIFO signals; see internal/postings).
	Promotions int64 `json:"promotions"`
	GhostHits  int64 `json:"ghost_hits"`
}

// BlockCacheStats sums the per-shard decoded-block cache counters.
func (e *ShardedEngine) BlockCacheStats() BlockCacheStats {
	var out BlockCacheStats
	add := func(cs postings.BlockCacheStats) {
		out.Budget += cs.Budget
		out.Used += cs.Used
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Insertions += cs.Insertions
		out.Evictions += cs.Evictions
		out.Promotions += cs.Promotions
		out.GhostHits += cs.GhostHits
	}
	if e.live != nil {
		for _, sl := range e.live.View().Slices {
			add(sl.Eng.Index().BlockCacheStats())
		}
		return out
	}
	for i := 0; i < e.cluster.NumShards(); i++ {
		eng, _ := e.cluster.Engine(i)
		add(eng.Index().BlockCacheStats())
	}
	return out
}
