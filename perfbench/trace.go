package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"time"

	"csrank"
	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/segment"
	"csrank/internal/shard"
)

// Span is one timed call into a module. Spans of one request share Req;
// Parent indexes the enclosing span (-1 for a root).
type Span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run record writes them at exit.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

func (t *tracer) begin(name string, req, parent, shard int) int {
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: parent, Shard: shard, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// counters are the replay's exact counts: a single client on a fixed
// stream repeats them run after run.
type counters struct {
	// Reads and Executed count replayed searches and those the result
	// cache missed (which the layer decomposition re-executes).
	Reads, Executed int
	RCacheHits      int64
	RCacheMisses    int64
	// Cost charges summed over both phases and every slice.
	Cost postings.Stats
	// Statistics plan of each slice execution.
	PlanView, PlanStraightforward, PlanConventional int
	StatsCacheHits                                  int
	FallbackKeywords                                int64
	ResultSize                                      int64
	Writes, Refreshes, Compactions                  int
	// Mismatches counts decomposed answers that differ from the
	// engine's own.
	Mismatches int
}

// replayOut is everything a traced replay measured.
type replayOut struct {
	counters counters
	spans    []Span
	// Per open-phase read on the csrank instance.
	searchLat, hitLat, encodeLat []time.Duration
	// fanout is the cluster's own wall clock of each executed search.
	fanout []time.Duration
	// Summed over executed searches.
	statsTime       map[string]time.Duration
	scoreTime       time.Duration
	mergeTime       time.Duration
	stragglerSum    float64
	stragglerN      int
	allocs          uint64
	blockCache      postings.BlockCacheStats
	rcache          csrank.ResultCacheStats
	add, refresh    []time.Duration
	compact         []time.Duration
	firstMismatches []string
}

// wireResponse mirrors csserve's /search body, so encoding it costs what
// the server's encode costs.
type wireResponse struct {
	Query  string         `json:"query"`
	K      int            `json:"k"`
	Hits   []csrank.Hit   `json:"hits"`
	Stats  csrank.Stats   `json:"stats"`
	Shards []csrank.Stats `json:"shards,omitempty"`
}

// indexDoc maps a public document onto the corpus schema the way
// csrank's ingestion path does.
func indexDoc(d csrank.Document) index.Document {
	return index.Document{Fields: map[string]string{
		"title":   d.Title,
		"content": d.Title + " " + d.Body,
		"mesh":    strings.Join(d.Predicates, " "),
	}}
}

// replay runs the warm-up and open-loop ops of the stream, single client
// and in process, through two instances opened on dirs[0] and dirs[1]:
// the public csrank engine with the server's options (result cache on),
// and the modules below it, called one public function at a time. Writes
// go to both at the same stream points, refreshing every refreshEvery
// writes and compacting synchronously at the workload's threshold. The
// second instance re-executes exactly the searches the result cache
// missed, shard by shard, and must reproduce the engine's answer bit for
// bit.
func replay(w workload, st *stream, dirs []string) (*replayOut, error) {
	ctx := context.Background()
	tr := newTracer()
	out := &replayOut{statsTime: map[string]time.Duration{}}
	var ops []op
	for _, o := range st.ops {
		if o.phase != phaseClosed {
			ops = append(ops, o)
		}
	}
	refreshEvery := 1
	if w.writeQPS > 0 {
		refreshEvery = int(math.Max(1, w.writeQPS*w.refresh.Seconds()))
	}

	// Instance 1: csrank, exactly as csserve opens it.
	var eng *csrank.ShardedEngine
	var err error
	if w.live {
		eng, err = csrank.OpenLive(dirs[0], serverOptions(defaultResultCache), csrank.IngestOptions{RefreshEvery: time.Hour})
	} else {
		eng, err = csrank.OpenSharded(dirs[0], serverOptions(defaultResultCache))
	}
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	executed := map[int][]hit{}
	for r, o := range ops {
		if o.write {
			sp := tr.begin("csrank.Add", r, -1, -1)
			_, err := eng.Add(st.docs[o.doc])
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("replay write #%d: %w", o.doc, err)
			}
			out.counters.Writes++
			if out.counters.Writes%refreshEvery == 0 {
				sp := tr.begin("csrank.Refresh", r, -1, -1)
				err = eng.Refresh()
				tr.end(sp)
			}
			if err == nil && eng.Pending() >= w.compactAt {
				sp := tr.begin("csrank.Compact", r, -1, -1)
				err = eng.Compact()
				tr.end(sp)
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		root := tr.begin("request", r, -1, -1)
		sp := tr.begin("csrank.SearchGated", r, root, -1)
		hits, stats, _, err := eng.SearchDetailed(ctx, o.q, topK)
		d := tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay search %q: %w", o.q, err)
		}
		sp = tr.begin("csserve.encode", r, root, -1)
		_, err = json.Marshal(wireResponse{Query: o.q, K: topK, Hits: hits, Stats: stats, Shards: nil})
		e := tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		out.counters.Reads++
		if o.phase == phaseOpen {
			out.searchLat = append(out.searchLat, d)
			out.encodeLat = append(out.encodeLat, e)
		}
		if stats.ResultCacheHit {
			if o.phase == phaseOpen {
				out.hitLat = append(out.hitLat, d)
			}
			continue
		}
		executed[r] = toHits(hits)
		out.fanout = append(out.fanout, stats.Elapsed)
	}
	out.rcache = eng.ResultCacheStats()
	out.counters.RCacheHits, out.counters.RCacheMisses = out.rcache.Hits, out.rcache.Misses

	// Instance 2: the modules, one public call at a time.
	coreOpts := core.Options{Scorer: ranking.NewPivotedTFIDF(), CacheContexts: 256}
	var slicesOf func() ([]core.Slice, int)
	var ing *segment.Ingester
	if w.live {
		ing, err = segment.Open(dirs[1], segment.Options{Core: coreOpts, RefreshEvery: time.Hour})
		if err != nil {
			return nil, err
		}
		defer ing.Close()
		slicesOf = func() ([]core.Slice, int) { v := ing.View(); return v.Slices, v.Base }
	} else {
		cl, err := shard.Open(dirs[1], coreOpts)
		if err != nil {
			return nil, err
		}
		slicesOf = func() ([]core.Slice, int) { s, _ := cl.Slices(); return s, len(s) }
	}
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	writes := 0
	for r, o := range ops {
		if o.write {
			sp := tr.begin("segment.Add", r, -1, -1)
			_, err := ing.Add(indexDoc(st.docs[o.doc]))
			out.add = append(out.add, tr.end(sp))
			if err != nil {
				return nil, err
			}
			writes++
			if writes%refreshEvery == 0 {
				sp := tr.begin("segment.Refresh", r, -1, -1)
				err = ing.Refresh()
				out.refresh = append(out.refresh, tr.end(sp))
				out.counters.Refreshes++
			}
			if err == nil && ing.Pending() >= w.compactAt {
				sp := tr.begin("segment.Compact", r, -1, -1)
				err = ing.Compact()
				out.compact = append(out.compact, tr.end(sp))
				out.counters.Compactions++
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		want, ok := executed[r]
		if !ok {
			continue
		}
		out.counters.Executed++
		metrics.Read(allocSample)
		allocs0 := allocSample[0].Value.Uint64()
		got, err := decompose(ctx, tr, r, o.q, slicesOf, out)
		metrics.Read(allocSample)
		out.allocs += allocSample[0].Value.Uint64() - allocs0
		if err != nil {
			return nil, fmt.Errorf("decomposed search %q: %w", o.q, err)
		}
		if !sameHits(got, want) {
			out.counters.Mismatches++
			if len(out.firstMismatches) < 5 {
				out.firstMismatches = append(out.firstMismatches, fmt.Sprintf("%q: decomposed %v, engine %v", o.q, got, want))
			}
		}
	}
	out.spans = tr.spans
	return out, nil
}

// decompose executes one search the way the sharded engine does —
// StatsFor per slice, MergeCollectionStats, SearchWithStats per slice
// under the merged statistics, MergeResults in the global docID space —
// with a span around each call, and accumulates the layer counters.
func decompose(ctx context.Context, tr *tracer, r int, q string, slicesOf func() ([]core.Slice, int), out *replayOut) ([]hit, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	slices, nBase := slicesOf()
	var bc0 postings.BlockCacheStats
	for _, s := range slices {
		addBlockStats(&bc0, s.Eng.Index().BlockCacheStats())
	}
	root := tr.begin("decompose", r, -1, -1)
	c := &out.counters

	parts := make([]ranking.CollectionStats, len(slices))
	statsDur := make([]time.Duration, len(slices))
	for i, s := range slices {
		sp := tr.begin("core.StatsFor", r, root, i)
		var est core.ExecStats
		parts[i], est, err = s.Eng.StatsFor(ctx, pq)
		statsDur[i] = tr.end(sp)
		if err != nil {
			return nil, err
		}
		plan := "straightforward"
		switch {
		case est.Plan == core.PlanConventional:
			plan = "conventional"
			c.PlanConventional++
		case est.UsedView:
			plan = "view"
			c.PlanView++
		default:
			c.PlanStraightforward++
		}
		out.statsTime[plan] += statsDur[i]
		if est.CacheHit && plan != "conventional" {
			c.StatsCacheHits++
		}
		c.FallbackKeywords += int64(est.FallbackKeywords)
		c.Cost.Add(est.Stats)
	}
	sp := tr.begin("core.MergeCollectionStats", r, root, -1)
	cs := core.MergeCollectionStats(parts...)
	out.mergeTime += tr.end(sp)

	lists := make([][]core.Result, len(slices))
	scoreDur := make([]time.Duration, len(slices))
	for i, s := range slices {
		sp := tr.begin("core.SearchWithStats", r, root, i)
		res, sst, err := s.Eng.SearchWithStats(ctx, pq, topK, cs)
		scoreDur[i] = tr.end(sp)
		if err != nil {
			return nil, err
		}
		out.scoreTime += scoreDur[i]
		c.ResultSize += int64(sst.ResultSize)
		c.Cost.Add(sst.Stats)
		lists[i] = make([]core.Result, len(res))
		for j, x := range res {
			lists[i][j] = core.Result{DocID: s.Globals[x.DocID], Score: x.Score}
		}
	}
	sp = tr.begin("core.MergeResults", r, root, -1)
	merged := core.MergeResults(topK, lists...)
	out.mergeTime += tr.end(sp)
	tr.end(root)

	if nBase > 1 {
		for _, ds := range [][]time.Duration{statsDur[:nBase], scoreDur[:nBase]} {
			var sum, max time.Duration
			for _, d := range ds {
				sum += d
				if d > max {
					max = d
				}
			}
			if sum > 0 {
				out.stragglerSum += float64(max) * float64(len(ds)) / float64(sum)
				out.stragglerN++
			}
		}
	}
	var bc1 postings.BlockCacheStats
	for _, s := range slices {
		addBlockStats(&bc1, s.Eng.Index().BlockCacheStats())
	}
	out.blockCache.Hits += bc1.Hits - bc0.Hits
	out.blockCache.Misses += bc1.Misses - bc0.Misses
	out.blockCache.Evictions += bc1.Evictions - bc0.Evictions

	got := make([]hit, len(merged))
	for i, x := range merged {
		got[i] = hit{DocID: int(x.DocID), Score: x.Score}
	}
	return got, nil
}

func addBlockStats(dst *postings.BlockCacheStats, s postings.BlockCacheStats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedReplay runs the replay and the set-up module timings and turns
// them into the per-layer metrics. readP50 and writes come from the
// untraced server phase of the same run.
func (b *bench) tracedReplay(st *stream, dirs []string, readP50 float64, writes []time.Duration) (map[string]metric, []Span, error) {
	openMs, bytesPerPosting, err := timeIndexOpen(dirs[1])
	if err != nil {
		return nil, nil, err
	}
	out, err := replay(b.w, st, dirs)
	if err != nil {
		return nil, nil, err
	}
	c := out.counters
	b.attempted += int64(c.Executed)
	for _, m := range out.firstMismatches {
		b.miss("traced replay: %s", m)
	}
	if extra := c.Mismatches - len(out.firstMismatches); extra > 0 {
		b.failed += int64(extra)
	}
	setup, err := timeSetup()
	if err != nil {
		return nil, nil, err
	}

	n := float64(c.Executed)
	search := millis(out.searchLat)
	wms := millis(writes)
	contextual := float64(c.PlanView + c.PlanStraightforward)
	statsTotal := out.statsTime["view"] + out.statsTime["straightforward"] + out.statsTime["conventional"]
	perQ := func(v int64) float64 { return ratio(float64(v), n) }
	msPerQ := func(d time.Duration) float64 { return ratio(float64(d)/1e6, n) }
	m := map[string]metric{
		"csserve.residual_p50_ms": {readP50 - quantile(search, 0.5), "ms"},
		"csserve.encode_us":       {quantile(millis(out.encodeLat), 0.5) * 1e3, "us"},
		"csserve.write_p50_ms":    {quantile(wms, 0.5), "ms"},
		"csserve.write_p99_ms":    {quantile(wms, tailQ(len(wms))), "ms"},

		"csrank.search_p50_ms":               {quantile(search, 0.5), "ms"},
		"csrank.search_p99_ms":               {quantile(search, tailQ(len(search))), "ms"},
		"csrank.hit_us":                      {quantile(millis(out.hitLat), 0.5) * 1e3, "us"},
		"rcache.hit_ratio":                   {ratio(float64(out.rcache.Hits), float64(out.rcache.Hits+out.rcache.Misses)), "ratio"},
		"rcache.coalesced":                   {float64(out.rcache.Coalesced), "count"},
		"rcache.bytes":                       {float64(out.rcache.Bytes), "bytes"},
		"rcache.invalidations_per_1k_writes": {ratio(float64(out.rcache.Invalidations)*1000, float64(c.Writes)), "count"},

		"shard.fanout_ms":       {meanMs(out.fanout), "ms"},
		"shard.merge_us":        {msPerQ(out.mergeTime) * 1e3, "us"},
		"shard.straggler_ratio": {ratio(out.stragglerSum, float64(out.stragglerN)), "ratio"},

		"core.stats_ms":                 {msPerQ(statsTotal), "ms"},
		"core.stats.view_ms":            {msPerQ(out.statsTime["view"]), "ms"},
		"core.stats.straightforward_ms": {msPerQ(out.statsTime["straightforward"]), "ms"},
		"core.stats.conventional_ms":    {msPerQ(out.statsTime["conventional"]), "ms"},
		"core.score_ms":                 {msPerQ(out.scoreTime), "ms"},
		"core.plan_view_frac":           {ratio(float64(c.PlanView), contextual), "ratio"},
		"core.statscache_hit_ratio":     {ratio(float64(c.StatsCacheHits), contextual), "ratio"},
		"core.fallback_keywords":        {perQ(c.FallbackKeywords), "count"},
		"core.result_size":              {perQ(c.ResultSize), "count"},
		"core.allocs_per_query":         {ratio(float64(out.allocs), n), "count"},

		"postings.entries_scanned":    {perQ(c.Cost.EntriesScanned), "count"},
		"postings.seeks":              {perQ(c.Cost.Seeks), "count"},
		"postings.aggregated_entries": {perQ(c.Cost.AggregatedEntries), "count"},
		"postings.bitmap_words":       {perQ(c.Cost.BitmapWords), "count"},
		"views.groups_scanned":        {perQ(c.Cost.ViewGroupsScanned), "count"},
		"blockcache.hit_ratio":        {ratio(float64(out.blockCache.Hits), float64(out.blockCache.Hits+out.blockCache.Misses)), "ratio"},
		"blockcache.misses":           {perQ(out.blockCache.Misses), "count"},
		"blockcache.evictions":        {perQ(out.blockCache.Evictions), "count"},

		"segment.add_ms":      {meanMs(out.add), "ms"},
		"segment.refresh_ms":  {meanMs(out.refresh), "ms"},
		"segment.compact_s":   {meanMs(out.compact) / 1e3, "s"},
		"segment.compactions": {float64(c.Compactions), "count"},

		"corpus.gen_s":            {setup.gen.Seconds(), "s"},
		"index.build_s":           {setup.build.Seconds(), "s"},
		"selection.s":             {setup.selection.Seconds(), "s"},
		"index.open_ms":           {float64(openMs) / 1e6, "ms"},
		"index.bytes_per_posting": {bytesPerPosting, "bytes"},
	}
	return m, out.spans, nil
}
