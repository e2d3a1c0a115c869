package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/shard"
)

// setupTimes are the set-up modules' wall times for one cluster build.
type setupTimes struct {
	gen, build, selection time.Duration
}

// buildCluster makes the public calls csbuild -shards makes — generate
// the corpus, split it, index and select views per shard — timing each
// module. With out non-empty it also writes the cluster there as csbuild
// does (format v4 indexes, views, manifest, ontology).
func buildCluster(docs, shards int, out string) (setupTimes, error) {
	var t setupTimes
	cfg := corpus.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.NumDocs = docs
	cfg.OntologyTerms = 300
	cfg.NumTopics = 30
	t0 := time.Now()
	c, err := corpus.Generate(cfg)
	if err != nil {
		return t, err
	}
	t.gen = time.Since(t0)
	parts, _, err := shard.Split(c.IndexDocuments(), shards)
	if err != nil {
		return t, err
	}
	for i, part := range parts {
		t0 = time.Now()
		ix, err := index.BuildFrom(corpus.Schema(), 0, part)
		if err != nil {
			return t, fmt.Errorf("shard %d: %w", i, err)
		}
		t.build += time.Since(t0)
		tc := int64(0.01 * float64(len(part)))
		if tc < 1 {
			tc = 1
		}
		t0 = time.Now()
		m, err := selection.Select(ix, selection.Config{TC: tc, TV: 4096, Seed: corpusSeed})
		if err != nil {
			return t, fmt.Errorf("shard %d: %w", i, err)
		}
		t.selection += time.Since(t0)
		if out == "" {
			continue
		}
		sd := shard.ShardDir(out, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return t, err
		}
		if err := ix.SaveMapped(filepath.Join(sd, "index.gob")); err != nil {
			return t, err
		}
		if err := m.Catalog.SaveFile(filepath.Join(sd, "views.gob")); err != nil {
			return t, err
		}
	}
	if out == "" {
		return t, nil
	}
	if err := shard.SaveManifest(out, shard.NewManifest(len(c.Docs), shards)); err != nil {
		return t, err
	}
	return t, c.Onto.SaveFile(filepath.Join(out, "mesh.gob"))
}

// timeSetup times the set-up modules on the pinned corpus.
func timeSetup() (setupTimes, error) {
	return buildCluster(corpusDocs, corpusShards, "")
}

// timeIndexOpen opens every shard index of a cluster as csserve does and
// returns the summed open time and the on-disk bytes per posting.
func timeIndexOpen(dir string) (time.Duration, float64, error) {
	m, err := shard.LoadManifest(dir)
	if err != nil {
		return 0, 0, err
	}
	var open time.Duration
	var bytes, postingsN int64
	for i := 0; i < m.Shards; i++ {
		path := filepath.Join(shard.ShardDir(dir, i), "index.gob")
		t0 := time.Now()
		ix, err := index.LoadFile(path)
		if err != nil {
			return 0, 0, err
		}
		open += time.Since(t0)
		fi, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		bytes += fi.Size()
		for _, f := range ix.Schema().Fields {
			postingsN += ix.ContainerStats(f.Name).Postings
		}
		ix.Close()
	}
	return open, ratio(float64(bytes), float64(postingsN)), nil
}
