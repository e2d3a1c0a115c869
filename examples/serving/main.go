// Serving: build a 4-shard cluster, serve it over HTTP in-process, and
// query it — showing that the sharded ranking is bit-identical to a
// single engine while /search responses carry cluster-aggregated
// statistics (degraded flags ORed, pruning counters summed across
// shards).
//
//	go run ./examples/serving
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"

	"csrank"
)

func main() {
	// A synthetic clinical-notes archive: two wards with different
	// language statistics, so context changes the ranking.
	b := csrank.NewBuilder()
	single := csrank.NewBuilder()
	for _, add := range []func(csrank.Document){b.Add, single.Add} {
		for i := 0; i < 600; i++ {
			ward := "cardiology"
			body := "chest pain troponin ecg stenosis catheter"
			if i%2 == 0 {
				ward = "oncology"
				body = "tumor staging biopsy chemotherapy infusion pain"
			}
			add(csrank.Document{
				Title:      fmt.Sprintf("Note %d (%s)", i, ward),
				Body:       body,
				Predicates: []string{ward},
			})
		}
	}

	// Default options serve top-k through block-max pruning: the
	// response's aggregated pruning counters show how much work the
	// shards skipped, summed across the fan-out.
	var opts csrank.BuildOptions
	cluster, err := b.BuildSharded(4, opts)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := single.Build(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d documents over %d shards, %d views total\n",
		cluster.NumDocs(), cluster.NumShards(), cluster.NumViews())

	// Serve the cluster over HTTP. httptest stands in for csserve's
	// ListenAndServe so the example is self-contained; the handler is a
	// miniature of csserve's /search.
	mux := http.NewServeMux()
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		hits, stats, perShard, err := cluster.SearchDetailed(r.Context(), q, 5)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"hits": hits, "stats": stats, "shards": perShard,
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	q := "pain | oncology"
	resp, err := http.Get(ts.URL + "/search?q=" + url.QueryEscape(q))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Hits   []csrank.Hit   `json:"hits"`
		Stats  csrank.Stats   `json:"stats"`
		Shards []csrank.Stats `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nGET /search?q=%q over 4 shards:\n", q)
	for i, h := range body.Hits {
		fmt.Printf("  %d. (%.4f) %s\n", i+1, h.Score, h.Title)
	}
	fmt.Printf("aggregated stats: plan=%s context=%d degraded=%v pruned_docs=%d elapsed=%v\n",
		body.Stats.Plan, body.Stats.ContextSize, body.Stats.Degraded,
		body.Stats.PrunedDocs, body.Stats.Elapsed)
	for i, st := range body.Shards {
		fmt.Printf("  shard %d: plan=%-15s results=%-3d pruned_docs=%d\n",
			i, st.Plan, st.ResultSize, st.PrunedDocs)
	}

	// The whole point: the sharded HTTP answer equals the single engine.
	want, _, err := ref.Search(q, 5)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if body.Hits[i] != want[i] {
			log.Fatalf("rank %d diverged: %+v vs %+v", i, body.Hits[i], want[i])
		}
	}
	fmt.Println("\nsharded HTTP results are bit-identical to the single engine ✓")
}
