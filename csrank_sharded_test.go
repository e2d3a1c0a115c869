package csrank

import (
	"context"
	"fmt"
	"testing"
)

// shardedDemoQueries exercise contextual, conventional-shape and
// tie-break-heavy cases over the demo collection.
var shardedDemoQueries = []string{
	"pancreas leukemia | digestive_system",
	"pancreas leukemia",
	"leukemia | neoplasms",
	"leukemia lymphoma | neoplasms",
	"surgery outcomes | digestive_system",
	"leukemia",
}

// rebuildDemoDocs queues the same documents buildDemo indexes.
func rebuildDemoDocs(b *Builder) {
	b.Add(Document{
		Title:      "Complications following pancreas transplant",
		Body:       "pancreas pancreas transplant complications leukemia",
		Predicates: []string{"digestive_system"},
	})
	b.Add(Document{
		Title:      "Organ failure in patients with acute leukemia",
		Body:       "leukemia leukemia organ failure pancreas",
		Predicates: []string{"digestive_system"},
	})
	for i := 0; i < 400; i++ {
		b.Add(Document{
			Title:      fmt.Sprintf("Leukemia cohort study %d", i),
			Body:       "leukemia lymphoma tumor outcomes",
			Predicates: []string{"neoplasms"},
		})
	}
	for i := 0; i < 200; i++ {
		body := "pancreas liver gastric surgery"
		if i < 4 {
			body += " leukemia"
		}
		b.Add(Document{
			Title:      fmt.Sprintf("Digestive surgery outcomes %d", i),
			Body:       body,
			Predicates: []string{"digestive_system"},
		})
	}
}

// TestBuildShardedMatchesBuild: the public sharded engine must return
// the same hits — docIDs, titles, scores — as the single engine built
// from the same documents, for several shard counts, with and without
// pruning.
func TestBuildShardedMatchesBuild(t *testing.T) {
	for _, pruning := range []bool{false, true} {
		opts := BuildOptions{DisablePruning: !pruning}
		single := buildDemo(t, opts)
		for _, shards := range []int{1, 2, 4} {
			b := NewBuilder()
			rebuildDemoDocs(b)
			se, err := b.BuildSharded(shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			if se.NumShards() != shards || se.NumDocs() != single.NumDocs() {
				t.Fatalf("sharded engine %d shards / %d docs, want %d / %d",
					se.NumShards(), se.NumDocs(), shards, single.NumDocs())
			}
			if se.NumViews() == 0 {
				t.Errorf("shards=%d: no views materialized on any shard", shards)
			}
			for _, q := range shardedDemoQueries {
				want, _, err := single.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				got, st, per, err := se.SearchDetailed(context.Background(), q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(per) != shards {
					t.Fatalf("%d per-shard reports for %d shards", len(per), shards)
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d q=%q: %d hits, want %d", shards, q, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d q=%q rank %d: %+v, want %+v", shards, q, i, got[i], want[i])
					}
				}
				if st.Elapsed <= 0 {
					t.Errorf("shards=%d q=%q: non-positive Elapsed", shards, q)
				}
			}
		}
	}
}

// TestShardedWrapAndRoundTrip: Engine.Sharded() ranks like the engine;
// Save + OpenSharded round-trips bit-identically (both index formats).
func TestShardedWrapAndRoundTrip(t *testing.T) {
	single := buildDemo(t, BuildOptions{})
	wrapped, err := single.Sharded()
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.NumShards() != 1 || wrapped.NumDocs() != single.NumDocs() {
		t.Fatalf("wrapped: %d shards / %d docs", wrapped.NumShards(), wrapped.NumDocs())
	}

	b := NewBuilder()
	rebuildDemoDocs(b)
	se, err := b.BuildSharded(3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	saves := map[string]func(string) error{"framed": se.Save, "mapped": se.SaveMapped}
	for name, save := range saves {
		dir := t.TempDir()
		if err := save(dir); err != nil {
			t.Fatal(err)
		}
		if !IsSharded(dir) {
			t.Fatalf("%s: saved dir not detected as sharded", name)
		}
		re, err := OpenSharded(dir, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Generations(); len(got) != 3 {
			t.Fatalf("%s: %d generations", name, len(got))
		}
		for _, q := range shardedDemoQueries {
			want, _, err := single.Search(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []*ShardedEngine{wrapped, se, re} {
				got, _, err := eng.Search(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s q=%q: %d hits, want %d", name, q, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s q=%q rank %d: %+v, want %+v", name, q, i, got[i], want[i])
					}
				}
			}
		}
	}
}
