package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"csrank"
	"csrank/internal/core"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/shard"
)

// serverOptions mirrors csserve's default flags; the in-process reference
// and the traced replay rank with exactly what the server ranks with.
func serverOptions(resultCache int64) csrank.BuildOptions {
	return csrank.BuildOptions{
		Scorer:        csrank.PivotedTFIDF,
		CacheContexts: 256,
		Cache:         csrank.CacheOptions{ResultBytes: resultCache},
	}
}

const defaultResultCache = 64 << 20

// bench is one run of one workload.
type bench struct {
	meta  map[string]any
	w     workload
	seed  int64
	dur   time.Duration
	trace bool
	bin   string
	dir   string

	attempted, failed int64
	failures          []string
	// sampleAnswers are the live server's answers to the durability
	// sample just before it stopped.
	sampleAnswers [][]hit
}

// miss records a failed, shed or wrong request.
func (b *bench) miss(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// hit is one ranked answer as the wire carries it.
type hit struct {
	DocID int     `json:"doc_id"`
	Score float64 `json:"score"`
}

// wireSearch is the part of a /search response the checks read.
type wireSearch struct {
	Hits  []hit `json:"hits"`
	Stats struct {
		Degraded       bool `json:"degraded"`
		ResultCacheHit bool `json:"result_cache_hit"`
	} `json:"stats"`
}

func sameHits(a, b []hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func toHits(hs []csrank.Hit) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{DocID: h.DocID, Score: h.Score}
	}
	return out
}

// references answers every distinct query in process, on nproc
// goroutines, with a cluster of the same shard indexes but no views and
// no caches: every contextual query takes the straightforward statistics
// plan, so the server's view-plan answers are checked against a plan that
// shares none of their statistics code.
func references(cv *corpusView, queries []string) (map[string][]hit, error) {
	engines := make([]*core.Engine, len(cv.indexes))
	for i, ix := range cv.indexes {
		engines[i] = core.New(ix, nil, core.Options{Scorer: ranking.NewPivotedTFIDF()})
	}
	cl, err := shard.NewCluster(engines, cv.globals)
	if err != nil {
		return nil, err
	}
	out := make([][]hit, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				out[i], errs[i] = reference(cl, queries[i])
			}
		}(w)
	}
	wg.Wait()
	ref := make(map[string][]hit, len(queries))
	for i, q := range queries {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference %q: %w", q, errs[i])
		}
		ref[q] = out[i]
	}
	return ref, nil
}

func reference(cl *shard.Cluster, q string) ([]hit, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	hs, sum, err := cl.Search(context.Background(), pq, topK)
	if err != nil {
		return nil, err
	}
	if sum.Agg.Degraded {
		return nil, fmt.Errorf("reference answer degraded: %s", sum.Agg.DegradedReason)
	}
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{DocID: int(h.Global), Score: h.Score}
	}
	return out, nil
}

func uniqueReads(ops []op) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range ops {
		if !o.write && !seen[o.q] {
			seen[o.q] = true
			out = append(out, o.q)
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailQ is the highest quantile up to 0.99 with at least ten samples
// beyond it.
func tailQ(n int) float64 {
	q := 0.99
	if n > 0 && float64(n)*(1-q) < 10 {
		q = math.Max(0.5, 1-10/float64(n))
	}
	return q
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func millisInOrder(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// setupOpens is how many times set-up opens the server; setup_s uses the
// median open.
const setupOpens = 3

func (b *bench) run() (result, record, error) {
	meta := b.meta
	meta["workload"] = b.w.name
	meta["seed"] = b.seed
	meta["seconds"] = b.dur.Seconds()
	meta["trace"] = b.trace
	meta["connections"] = runtime.NumCPU()
	meta["rates"] = map[string]float64{"read_qps": b.w.readQPS, "write_qps": b.w.writeQPS}
	rec := record{Meta: meta}
	t0 := time.Now()
	stages := map[string]float64{}
	stage := func(name string) { stages[name] = time.Since(t0).Seconds() }
	meta["stages_s"] = stages

	base := filepath.Join(b.dir, "cluster")
	buildTime, err := runCsbuild(b.bin, base, filepath.Join(b.dir, "csbuild.log"))
	if err != nil {
		return result{}, rec, err
	}
	idxBytes, err := dirBytes(base)
	if err != nil {
		return result{}, rec, err
	}
	stage("csbuild")
	cv, err := loadCorpusView(base)
	if err != nil {
		return result{}, rec, err
	}
	st, err := makeStream(cv, b.w, b.seed, b.dur)
	if err != nil {
		return result{}, rec, err
	}
	var ref map[string][]hit
	if !b.w.live {
		if ref, err = references(cv, uniqueReads(st.ops)); err != nil {
			return result{}, rec, err
		}
	}
	cv.close()
	stage("references")
	// The traced replay needs the cluster as built; a live server changes
	// its directory.
	traceDirs := []string{base, base}
	if b.trace && b.w.live {
		for i := range traceDirs {
			traceDirs[i] = filepath.Join(b.dir, fmt.Sprintf("trace-%d", i))
			if err := copyDir(base, traceDirs[i]); err != nil {
				return result{}, rec, err
			}
		}
	}
	runtime.GC()

	// Set-up: csbuild, then open the server setupOpens times (the last one
	// serves the run).
	logPath := filepath.Join(b.dir, "csserve.log")
	var opens []time.Duration
	var srv *server
	for i := 0; i < setupOpens; i++ {
		s, d, err := startServer(b.bin, base, b.w.flags, logPath)
		if err != nil {
			return result{}, rec, err
		}
		opens = append(opens, d)
		if i < setupOpens-1 {
			if err := s.stop(); err != nil {
				return result{}, rec, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	setup := buildTime + medianDur(opens)
	meta["server_flags"] = srv.args
	meta["setup"] = map[string]any{"csbuild_s": buildTime.Seconds(), "server_open_s": secondsOf(opens)}

	stage("server_open")
	d := newLoadgen(srv.base, runtime.NumCPU())
	defer d.close()
	warmOps, openOps, closedOps := st.phase(phaseWarm), st.phase(phaseOpen), st.phase(phaseClosed)
	warmOuts, _ := d.runClosed(warmOps, st)
	ticks0, err := srv.cpuTicks()
	if err != nil {
		return result{}, rec, err
	}
	openOuts, openElapsed := d.runOpen(openOps, st)
	if b.w.live {
		// The phase's CPU includes the compactions its writes triggered,
		// and the closed loop must not overlap one.
		t := time.Now()
		if err := waitCompacted(d, b.w.compactAt); err != nil {
			return result{}, rec, err
		}
		meta["compaction_wait_s"] = time.Since(t).Seconds()
	}
	ticks1, err := srv.cpuTicks()
	if err != nil {
		return result{}, rec, err
	}
	closedOuts, closedElapsed := d.runClosed(closedOps, st)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, rec, err
	}
	if statsz, err := d.get("/statsz"); err == nil {
		var sz map[string]any
		if json.Unmarshal(statsz, &sz) == nil {
			meta["server_statsz"] = sz
		}
	}

	stage("load")
	// Answers: every read of every phase.
	phases := []struct {
		ops  []op
		outs []outcome
	}{{warmOps, warmOuts}, {openOps, openOuts}, {closedOps, closedOuts}}
	for _, ph := range phases {
		for i, o := range ph.ops {
			b.attempted++
			b.checkOutcome(o, ph.outs[i], ref)
		}
	}
	var acked map[int]int
	if b.w.live {
		acked = b.ackedDocs(openOps, openOuts)
		b.checkDurability(d, st, acked)
	}
	stopped = true
	if err := srv.stop(); err != nil {
		b.miss("csserve exit: %v", err)
	}
	if b.w.live {
		if err := b.checkReopen(st, acked, base); err != nil {
			return result{}, rec, err
		}
	}

	stage("checks")
	var reads, writes []time.Duration
	var lags []time.Duration
	busy := 0
	okOpen := 0
	for i, o := range openOps {
		out := openOuts[i]
		if out.lag >= 0 {
			lags = append(lags, out.lag)
		} else {
			busy++
		}
		if !out.ok() {
			continue
		}
		okOpen++
		if o.write {
			writes = append(writes, out.lat)
		} else {
			reads = append(reads, out.lat)
		}
	}
	okClosed := 0
	for _, out := range closedOuts {
		if out.ok() {
			okClosed++
		}
	}
	if len(reads) == 0 || okOpen == 0 || okClosed == 0 {
		return result{}, rec, fmt.Errorf("no successful requests (failures: %v)", b.failures)
	}
	rms := millis(reads)
	qTail := tailQ(len(rms))
	lagMs := millis(lags)
	meta["samples"] = map[string]any{
		"warmup": len(warmOps), "open_reads": len(reads), "open_writes": len(writes),
		"closed": len(closedOps), "read_tail_quantile": qTail,
		"open_elapsed_s": openElapsed.Seconds(), "closed_elapsed_s": closedElapsed.Seconds(),
	}
	meta["generator_lag_ms"] = map[string]any{
		"p50": quantile(lagMs, 0.5), "p99": quantile(lagMs, tailQ(len(lagMs))), "max": quantile(lagMs, 1),
		"samples": len(lagMs), "sent_late_all_connections_busy": busy,
	}
	if len(writes) > 0 {
		wms := millis(writes)
		meta["writes"] = map[string]any{
			"p50_ms": quantile(wms, 0.5), "tail_ms": quantile(wms, tailQ(len(wms))),
			"tail_quantile": tailQ(len(wms)), "acked": len(acked),
		}
	}
	meta["fail_frac"] = float64(b.failed) / float64(b.attempted)
	meta["failures"] = b.failures

	rec.ReadLatencyMs = millisInOrder(reads)
	// Client-observed latency and capacity are per-layer metrics of the
	// serving path, not gated end-to-end ones: on the shared 2-CPU machine
	// the benchmark was tuned on they moved by 12-62% (interquartile range
	// over median) between runs of one build, while CPU time per query,
	// memory and index size held.
	serving := map[string]metric{
		"csserve.read_p50_ms":  {quantile(rms, 0.5), "ms"},
		"csserve.read_p90_ms":  {quantile(rms, 0.9), "ms"},
		"csserve.read_p99_ms":  {quantile(rms, qTail), "ms"},
		"csserve.capacity_qps": {float64(okClosed) / closedElapsed.Seconds(), "1/s"},
	}
	meta["serving"] = serving
	m := map[string]metric{
		"setup_s":          {setup.Seconds(), "s"},
		"cpu_ms_per_query": {float64(time.Duration(ticks1-ticks0)*clockTick) / 1e6 / float64(okOpen), "ms"},
		"server_rss_mb":    {rss, "MB"},
		"index_mb":         {float64(idxBytes) / (1 << 20), "MB"},
	}
	if b.trace {
		layers, spans, err := b.tracedReplay(st, traceDirs, serving["csserve.read_p50_ms"].Value, writes)
		if err != nil {
			return result{}, rec, err
		}
		for k, v := range serving {
			layers[k] = v
		}
		m = layers
		rec.Spans = spans
		stage("trace")
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	rec.Result = res
	return res, rec, nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// checkOutcome fails a request that errored, was shed, degraded, or —
// when a reference is known — ranked differently from it.
func (b *bench) checkOutcome(o op, out outcome, ref map[string][]hit) {
	if !out.ok() {
		b.miss("%s: status %d err %v body %.200s", describe(o), out.status, out.err, out.body)
		return
	}
	if o.write {
		return
	}
	var ws wireSearch
	if err := json.Unmarshal(out.body, &ws); err != nil {
		b.miss("%s: bad response: %v", describe(o), err)
		return
	}
	if ws.Stats.Degraded {
		b.miss("%s: degraded answer", describe(o))
		return
	}
	if ref == nil {
		return
	}
	if want, ok := ref[o.q]; !ok || !sameHits(ws.Hits, want) {
		b.miss("%s: answer differs from the in-process reference", describe(o))
	}
}

func describe(o op) string {
	if o.write {
		return fmt.Sprintf("write #%d", o.doc)
	}
	return fmt.Sprintf("search %q", o.q)
}

// ackedDocs maps written document index → acknowledged docID.
func (b *bench) ackedDocs(ops []op, outs []outcome) map[int]int {
	acked := map[int]int{}
	for i, o := range ops {
		if !o.write || !outs[i].ok() {
			continue
		}
		var ack struct {
			DocID int `json:"doc_id"`
		}
		if err := json.Unmarshal(outs[i].body, &ack); err != nil {
			b.miss("write #%d: bad ack: %v", o.doc, err)
			continue
		}
		acked[o.doc] = ack.DocID
	}
	return acked
}

// waitCompacted polls the live server until fewer documents are pending
// than the compaction threshold, i.e. every compaction the writes
// triggered has committed.
func waitCompacted(d *loadgen, threshold int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		body, err := d.get("/statsz")
		if err != nil {
			return err
		}
		var sz struct {
			PendingDocs int `json:"pending_docs"`
		}
		if err := json.Unmarshal(body, &sz); err != nil {
			return err
		}
		if sz.PendingDocs < threshold {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d documents still pending compaction after 60s", sz.PendingDocs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// durabilitySample is how many pool queries are compared across the
// server stop and reopen.
const durabilitySample = 50

// checkDurability runs on the live server after the load: every acked
// document must be searchable exactly once, by its marker word, once the
// final refresh has published it. It also records the sample answers the
// reopened directory must reproduce.
func (b *bench) checkDurability(d *loadgen, st *stream, acked map[int]int) {
	time.Sleep(b.w.refresh + 250*time.Millisecond)
	var markerOps []op
	var docs []int
	for i := range st.docs {
		if _, ok := acked[i]; ok {
			markerOps = append(markerOps, op{q: marker(b.seed, i)})
			docs = append(docs, i)
		}
	}
	outs, _ := d.runClosed(markerOps, st)
	for j, out := range outs {
		b.attempted++
		var ws wireSearch
		if !out.ok() || json.Unmarshal(out.body, &ws) != nil {
			b.miss("marker search for write #%d: status %d err %v", docs[j], out.status, out.err)
			continue
		}
		if len(ws.Hits) != 1 || ws.Hits[0].DocID != acked[docs[j]] {
			b.miss("write #%d (doc %d): marker search returned %v", docs[j], acked[docs[j]], ws.Hits)
		}
	}
	sample := st.pool[:durabilitySample]
	var sampleOps []op
	for _, q := range sample {
		sampleOps = append(sampleOps, op{q: q})
	}
	outs, _ = d.runClosed(sampleOps, st)
	b.sampleAnswers = make([][]hit, len(sample))
	for j, out := range outs {
		b.attempted++
		var ws wireSearch
		if !out.ok() || json.Unmarshal(out.body, &ws) != nil || ws.Stats.Degraded {
			b.miss("pre-stop sample %q: status %d err %v", sample[j], out.status, out.err)
			continue
		}
		b.sampleAnswers[j] = ws.Hits
	}
}

// checkReopen reopens the stopped server's directory: the document count
// must be the base plus every acked write, and the sample must answer as
// it did before the stop.
func (b *bench) checkReopen(st *stream, acked map[int]int, base string) error {
	eng, err := csrank.OpenLive(base, serverOptions(0), csrank.IngestOptions{})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", base, err)
	}
	defer eng.Close()
	if err := eng.Refresh(); err != nil {
		return err
	}
	b.attempted++
	if got, want := eng.NumDocs(), corpusDocs+len(acked); got != want {
		b.miss("reopened directory holds %d documents, want %d base + %d acked", got, corpusDocs, len(acked))
	}
	for j, q := range st.pool[:durabilitySample] {
		b.attempted++
		hs, stats, _, err := eng.SearchDetailed(context.Background(), q, topK)
		if err != nil || stats.Degraded || !sameHits(toHits(hs), b.sampleAnswers[j]) {
			b.miss("sample %q answers differently after reopen (err %v)", q, err)
		}
	}
	return nil
}
