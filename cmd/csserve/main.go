// Command csserve is an HTTP/JSON front end for context-sensitive
// search over a data directory written by csbuild — single-engine or
// sharded (csbuild -shards N). Every request is admission-controlled: a
// bounded pool of in-flight searches fronted by a bounded wait queue,
// so overload sheds (429/503) at the door instead of melting latency.
//
// Usage:
//
//	csserve -data ./data -addr :8080 -max-inflight 16 -timeout 200ms
//
// Endpoints:
//
//	GET /search?q=pancreas+leukemia+%7C+digestive_system&k=10
//	GET /statsz    cumulative counters + latency quantiles
//	GET /healthz
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"csrank"
)

func main() {
	var (
		data         = flag.String("data", "data", "data directory (single-engine or sharded cluster)")
		addr         = flag.String("addr", ":8080", "listen address")
		mode         = flag.String("mode", "auto", "auto | single | sharded — how to interpret -data")
		scorer       = flag.String("scorer", "pivoted-tfidf", "pivoted-tfidf | bm25 | dirichlet-lm | cosine-tfidf | jelinek-mercer-lm")
		parallel     = flag.Int("parallel", 0, "intra-query parallelism per shard (0 = GOMAXPROCS)")
		pruning      = flag.Bool("pruning", true, "serve top-k through block-max dynamic pruning (rank-safe: identical hits); -pruning=false scores every conjunction member")
		cache        = flag.Int("cache", 256, "context-statistics cache entries per shard (0 = off)")
		resultCache  = flag.Int64("result-cache", 64<<20, "serving-layer result cache budget in bytes; hits skip the shard fan-out AND the admission queue, concurrent identical queries coalesce onto one execution (0 = off)")
		timeout      = flag.Duration("timeout", 0, "per-request deadline covering queue wait + execution; on expiry partial results are returned flagged degraded (0 = unbounded)")
		statsBudget  = flag.Duration("stats-budget", 0, "per-query context-statistics budget; past it ranking uses approximate statistics flagged degraded (0 = unbounded)")
		k            = flag.Int("k", 10, "default result count (override per request with ?k=)")
		maxInflight  = flag.Int("max-inflight", runtime.GOMAXPROCS(0), "maximum concurrently executing searches")
		maxQueue     = flag.Int("max-queue", 64, "maximum searches waiting for an execution slot; beyond this requests are shed with 429")
		queueTimeout = flag.Duration("queue-timeout", 100*time.Millisecond, "longest a search may wait for a slot before shedding with 503 (0 = wait for the request deadline)")
		perShard     = flag.Bool("per-shard-stats", false, "include each shard's statistics report in /search responses")
		ingest       = flag.Bool("ingest", false, "accept POST /index writes (requires a sharded data directory; documents are WAL-durable before the 200)")
		refresh      = flag.Duration("refresh", 500*time.Millisecond, "with -ingest: how often newly added documents become searchable (0 = on every Add)")
		compactAt    = flag.Int("compact-threshold", 10000, "with -ingest: compact the mutable segment into the shard indexes once it holds this many documents (0 = never automatically)")
		minShards    = flag.Int("min-shards", 0, "fewest healthy shards for which a partial answer is still served; fewer fails the query (0 = 1, i.e. answer while any shard survives)")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-shard per-phase budget; a shard exceeding it is dropped from the query and the survivors answer flagged degraded (0 = off)")
		chaos        = flag.Bool("chaos", false, "serve POST /chaosz fault injection (per-shard latency/panic/corruption) — never in production")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "on SIGINT/SIGTERM: how long to wait for in-flight requests before exiting")
	)
	flag.Parse()
	cfg := serveConfig{
		data: *data, addr: *addr, mode: *mode, scorer: *scorer,
		parallel: *parallel, pruning: *pruning, cache: *cache, resultCache: *resultCache,
		timeout: *timeout, statsBudget: *statsBudget, k: *k,
		maxInflight: *maxInflight, maxQueue: *maxQueue, queueTimeout: *queueTimeout,
		perShard: *perShard, ingest: *ingest, refresh: *refresh, compactAt: *compactAt,
		minShards: *minShards, shardTimeout: *shardTimeout, chaos: *chaos, drainTimeout: *drainTimeout,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "csserve:", err)
		os.Exit(1)
	}
}

// serveConfig carries the parsed flags into run.
type serveConfig struct {
	data, addr, mode, scorer   string
	parallel, cache, k         int
	resultCache                int64
	pruning, perShard, ingest  bool
	timeout, statsBudget       time.Duration
	maxInflight, maxQueue      int
	queueTimeout               time.Duration
	refresh                    time.Duration
	compactAt                  int
	minShards                  int
	shardTimeout, drainTimeout time.Duration
	chaos                      bool
}

func run(cfg serveConfig) error {
	opts := csrank.BuildOptions{
		Scorer:         csrank.Scorer(cfg.scorer),
		Parallelism:    cfg.parallel,
		DisablePruning: !cfg.pruning,
		CacheContexts:  cfg.cache,
		Timeout:        cfg.timeout,
		StatsBudget:    cfg.statsBudget,
		MinShards:      cfg.minShards,
		ShardTimeout:   cfg.shardTimeout,
		Cache:          csrank.CacheOptions{ResultBytes: cfg.resultCache},
	}
	if cfg.chaos && cfg.ingest {
		// The live (mutable-segment) search path fans out without the
		// chaos seam, so armed faults would silently never fire.
		return fmt.Errorf("-chaos and -ingest are mutually exclusive")
	}
	eng, err := openEngine(cfg.data, cfg.mode, opts, cfg.ingest, cfg.refresh, cfg.compactAt)
	if err != nil {
		return err
	}
	srv := newServer(eng, newAdmission(cfg.maxInflight, cfg.maxQueue, cfg.queueTimeout), cfg.k, cfg.timeout, cfg.perShard, cfg.ingest)
	srv.chaos = cfg.chaos
	fmt.Fprintf(os.Stderr, "csserve: %d documents over %d shard(s); listening on %s (inflight≤%d queue≤%d ingest=%v chaos=%v)\n",
		eng.NumDocs(), eng.NumShards(), cfg.addr, cfg.maxInflight, cfg.maxQueue, cfg.ingest, cfg.chaos)

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain
	// in-flight requests up to the drain timeout, then flush the final
	// counters so the run's tail is in the logs even without a scraper.
	// The handler is installed before the listener starts: a client that
	// saw /healthz answer may signal at once, and an uncaught SIGTERM
	// would kill the process instead of draining it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "csserve: %s: draining (up to %s)\n", sig, cfg.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		shutErr := httpSrv.Shutdown(ctx)
		if final, err := json.Marshal(srv.statsz()); err == nil {
			fmt.Fprintf(os.Stderr, "csserve: final statsz: %s\n", final)
		}
		if shutErr != nil {
			return fmt.Errorf("drain incomplete after %s: %w", cfg.drainTimeout, shutErr)
		}
		fmt.Fprintln(os.Stderr, "csserve: drained cleanly")
		return nil
	}
}

// openEngine resolves the data directory into a ShardedEngine: a
// cluster manifest opens as a cluster, a single-engine directory is
// wrapped as a one-shard cluster, so the server has one code path. With
// ingest the cluster opens writable — WAL recovery, mutable segment,
// background refresh and compaction — which requires the sharded
// layout (csbuild -shards N, N ≥ 1).
func openEngine(data, mode string, opts csrank.BuildOptions, ingest bool, refresh time.Duration, compactAt int) (*csrank.ShardedEngine, error) {
	sharded := csrank.IsSharded(data)
	switch mode {
	case "auto":
	case "sharded":
		if !sharded {
			return nil, fmt.Errorf("%s holds no cluster manifest", data)
		}
	case "single":
		sharded = false
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	if ingest {
		if !sharded {
			return nil, fmt.Errorf("-ingest requires a sharded data directory (rebuild with csbuild -shards 1)")
		}
		return csrank.OpenLive(data, opts, csrank.IngestOptions{
			RefreshEvery:     refresh,
			CompactThreshold: compactAt,
		})
	}
	if sharded {
		return csrank.OpenSharded(data, opts)
	}
	e, err := csrank.OpenWithOptions(data, opts)
	if err != nil {
		return nil, err
	}
	return e.ShardedWithOptions(opts)
}
