// Command csbuild generates a synthetic PubMed-like corpus, builds the
// inverted index, runs hybrid view selection, and persists everything
// into a data directory that cssearch and csexp can load.
//
// Usage:
//
//	csbuild -out ./data -docs 20000 -terms 300 -tc 0.01 -tv 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/shard"
	"csrank/internal/views"
)

func main() {
	var (
		out     = flag.String("out", "data", "output directory (created if missing)")
		docs    = flag.Int("docs", 20000, "number of synthetic citations")
		terms   = flag.Int("terms", 300, "approximate MeSH vocabulary size")
		topics  = flag.Int("topics", 30, "benchmark topics embedded in the corpus")
		tcFrac  = flag.Float64("tc", 0.01, "context-size threshold T_C as a fraction of the corpus")
		tv      = flag.Int("tv", 4096, "view-size limit T_V (non-empty tuples)")
		seed    = flag.Int64("seed", 1, "generation seed")
		segSize = flag.Int("segsize", 0, "posting-list skip-segment size M0 (0 = default 128)")
		dump    = flag.Bool("dump", false, "also write the raw citations as citations.jsonl")
		legacy  = flag.Bool("legacy-snapshots", false, "write index.gob and views.gob as raw gob streams (pre-frame format) instead of checksummed snapshots")
		format  = flag.Int("format", index.MappedFormatVersion, "index file format: 4 = paged mmap-ready, 3 = framed gob snapshot")
		shards  = flag.Int("shards", 1, "document partitions: >1 writes a sharded cluster (shard-NNN dirs + cluster.json) for csserve")
	)
	flag.Parse()
	if err := run(*out, *docs, *terms, *topics, *tcFrac, *tv, *seed, *segSize, *dump, *legacy, *format, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "csbuild:", err)
		os.Exit(1)
	}
}

func run(out string, docs, terms, topics int, tcFrac float64, tv int, seed int64, segSize int, dump, legacy bool, format, shards int) error {
	if format != index.FormatVersion && format != index.MappedFormatVersion {
		return fmt.Errorf("unsupported -format %d (this build writes %d or %d)", format, index.FormatVersion, index.MappedFormatVersion)
	}
	if legacy && format == index.MappedFormatVersion {
		return fmt.Errorf("-legacy-snapshots requires -format %d: the paged format is framed by construction", index.FormatVersion)
	}
	if legacy && shards > 1 {
		return fmt.Errorf("-legacy-snapshots cannot write a sharded cluster")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDocs = docs
	cfg.OntologyTerms = terms
	cfg.NumTopics = topics

	t0 := time.Now()
	c, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d citations over %d MeSH terms in %s\n",
		len(c.Docs), c.Onto.Len(), time.Since(t0).Round(time.Millisecond))

	if err := writeQueries(out, c); err != nil {
		return err
	}
	if shards > 1 {
		return runSharded(out, c, tcFrac, tv, seed, segSize, format, shards, dump)
	}

	t0 = time.Now()
	ix, err := c.BuildIndex(segSize)
	if err != nil {
		return err
	}
	fmt.Printf("indexed: %s in %s\n", ix, time.Since(t0).Round(time.Millisecond))
	for _, field := range []string{ix.Schema().PredicateField, ix.Schema().ContentField} {
		cs := ix.ContainerStats(field)
		fmt.Printf("  %s lists: %d (%d postings) chunks: %d sparse / %d dense, tf arrays: %d, %.2f bytes/posting\n",
			field, cs.Lists, cs.Postings, cs.SparseChunks, cs.DenseChunks, cs.TFLists,
			float64(cs.Bytes)/float64(max64(cs.Postings, 1)))
	}

	tc := int64(tcFrac * float64(docs))
	t0 = time.Now()
	m, err := selection.Select(ix, selection.Config{TC: tc, TV: tv, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("selected %d views (T_C=%d, T_V=%d) in %s\n",
		m.Catalog.Len(), tc, tv, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  frequent terms=%d separators=%d clique remainders=%d\n",
		m.Result.Stats.FrequentTerms, m.Result.Stats.Separators, m.Result.Stats.CliqueRemainders)

	saveIndex, saveViews := ix.SaveFile, m.Catalog.SaveFile
	if format == index.MappedFormatVersion {
		saveIndex = ix.SaveMapped
	}
	if legacy {
		saveIndex, saveViews = ix.SaveFileLegacy, m.Catalog.SaveFileLegacy
	}
	indexPath := filepath.Join(out, "index.gob")
	t0 = time.Now()
	if err := saveIndex(indexPath); err != nil {
		return err
	}
	saveTime := time.Since(t0)
	if err := saveViews(filepath.Join(out, "views.gob")); err != nil {
		return err
	}
	if err := c.Onto.SaveFile(filepath.Join(out, "mesh.gob")); err != nil {
		return err
	}
	if dump {
		path := filepath.Join(out, "citations.jsonl")
		if err := c.SaveJSONL(path); err != nil {
			return err
		}
		fmt.Printf("dumped raw citations to %s\n", path)
	}
	formatName := fmt.Sprintf("format v%d (paged, mmap-ready)", index.MappedFormatVersion)
	switch {
	case legacy:
		formatName = "legacy raw gob"
	case format == index.FormatVersion:
		formatName = fmt.Sprintf("format v%d (checksummed snapshot)", index.FormatVersion)
	}
	st, err := os.Stat(indexPath)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.2f MB as %s in %s (%.2f bytes/posting on disk)\n",
		indexPath, float64(st.Size())/(1<<20), formatName, saveTime.Round(time.Millisecond),
		float64(st.Size())/float64(max64(totalPostings(ix), 1)))
	return reportViews(filepath.Join(out, "views.gob"), m.Catalog)
}

// reportViews prints the size of a written views.gob next to the §6.2
// storage estimate of the views it holds, which is not a file size.
func reportViews(path string, cat *views.Catalog) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.2f MB on disk (§6.2 view storage estimate %.2f MB)\n",
		path, float64(st.Size())/(1<<20), float64(cat.TotalBytes())/(1<<20))
	return nil
}

// writeQueries dumps the corpus topics as a replayable query log
// (queries.txt, "keywords | context terms" per line) for csload.
func writeQueries(out string, c *corpus.Corpus) error {
	if len(c.Topics) == 0 {
		return nil
	}
	var b strings.Builder
	for _, t := range c.Topics {
		b.WriteString(strings.Join(t.Keywords, " "))
		if len(t.ContextTerms) > 0 {
			b.WriteString(" | ")
			b.WriteString(strings.Join(t.ContextTerms, " "))
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(out, "queries.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d topic queries)\n", path, len(c.Topics))
	return nil
}

// runSharded hash-partitions the corpus and writes a cluster layout:
// shard-NNN directories each holding an ordinary engine data directory
// (index + views, selected per shard with T_C scaled to the shard's
// size), plus cluster.json. csserve and csrank.OpenSharded load it; the
// merged ranking is bit-identical to the unsharded build.
func runSharded(out string, c *corpus.Corpus, tcFrac float64, tv int, seed int64, segSize, format, shards int, dump bool) error {
	parts, _, err := shard.Split(c.IndexDocuments(), shards)
	if err != nil {
		return err
	}
	t0 := time.Now()
	totalViews := 0
	for i, part := range parts {
		ix, err := index.BuildFrom(corpus.Schema(), segSize, part)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		tc := int64(tcFrac * float64(len(part)))
		if tc < 1 {
			tc = 1
		}
		m, err := selection.Select(ix, selection.Config{TC: tc, TV: tv, Seed: seed})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		totalViews += m.Catalog.Len()
		sd := shard.ShardDir(out, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return err
		}
		save := ix.SaveFile
		if format == index.MappedFormatVersion {
			save = ix.SaveMapped
		}
		if err := save(filepath.Join(sd, "index.gob")); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		viewsPath := filepath.Join(sd, "views.gob")
		if err := m.Catalog.SaveFile(viewsPath); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		fmt.Printf("  shard %d: %d docs, %d views (T_C=%d)\n", i, len(part), m.Catalog.Len(), tc)
		if err := reportViews(viewsPath, m.Catalog); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := shard.SaveManifest(out, shard.NewManifest(len(c.Docs), shards)); err != nil {
		return err
	}
	if err := c.Onto.SaveFile(filepath.Join(out, "mesh.gob")); err != nil {
		return err
	}
	if dump {
		path := filepath.Join(out, "citations.jsonl")
		if err := c.SaveJSONL(path); err != nil {
			return err
		}
		fmt.Printf("dumped raw citations to %s\n", path)
	}
	fmt.Printf("wrote %d-shard cluster (%d docs, %d views, format v%d) under %s in %s\n",
		shards, len(c.Docs), totalViews, format, out, time.Since(t0).Round(time.Millisecond))
	return nil
}

// totalPostings sums postings across every field, the denominator for
// the on-disk bytes/posting figure.
func totalPostings(ix *index.Index) int64 {
	var n int64
	for _, f := range ix.Schema().Fields {
		n += ix.ContainerStats(f.Name).Postings
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
