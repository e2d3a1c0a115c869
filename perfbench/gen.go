package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"

	"csrank"
	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/mesh"
	"csrank/internal/shard"
)

// corpusView is what the generator reads from a built cluster: every
// document's stored title by global docID, the ontology behind the
// simulated ATM, and the content analyzer. It keeps the shard indexes
// open for the reference engine.
type corpusView struct {
	titles  []string
	onto    *mesh.Ontology
	an      *analysis.Analyzer
	indexes []*index.Index
	globals [][]uint32
}

func loadCorpusView(dir string) (*corpusView, error) {
	m, err := shard.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	onto, err := mesh.LoadFile(filepath.Join(dir, "mesh.gob"))
	if err != nil {
		return nil, err
	}
	cv := &corpusView{titles: make([]string, m.TotalDocs), onto: onto, globals: shard.GlobalMaps(m.TotalDocs, m.Shards)}
	for i, globals := range cv.globals {
		ix, err := index.LoadFile(filepath.Join(shard.ShardDir(dir, i), "index.gob"))
		if err != nil {
			cv.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		cv.indexes = append(cv.indexes, ix)
		for local, g := range globals {
			cv.titles[g] = ix.StoredField(uint32(local), "title")
		}
		if cv.an == nil {
			cv.an = ix.AnalyzerFor(ix.Schema().ContentField)
		}
	}
	return cv, nil
}

func (cv *corpusView) close() {
	for _, ix := range cv.indexes {
		ix.Close()
	}
	cv.indexes = nil
}

// query draws one query by the §6.3 recipe: 1–3 keywords from a random
// citation title (each must survive analysis), plus the simulated ATM
// context when the keywords map to 1–3 MeSH terms.
func (cv *corpusView) query(rng *rand.Rand) string {
	for {
		words := strings.Fields(cv.titles[rng.Intn(len(cv.titles))])
		rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
		n := 1 + rng.Intn(3)
		var kws []string
		seen := map[string]bool{}
		for _, w := range words {
			if !seen[w] && len(cv.an.Analyze(w)) > 0 {
				seen[w] = true
				kws = append(kws, w)
			}
			if len(kws) == n {
				break
			}
		}
		if len(kws) < n {
			continue
		}
		q := strings.Join(kws, " ")
		if terms := cv.onto.MapKeywords(kws); len(terms) >= 1 && len(terms) <= 3 {
			q += " | " + strings.Join(cv.onto.Names(terms), " ")
		}
		return q
	}
}

// pool returns n distinct queries.
func (cv *corpusView) pool(rng *rand.Rand, n int) ([]string, error) {
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for draws := 0; len(out) < n; draws++ {
		if draws > 20*n {
			return nil, fmt.Errorf("only %d distinct queries in %d draws, want %d", len(out), draws, n)
		}
		q := cv.query(rng)
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out, nil
}

// markerAlphabet has no vowels, 's' or 'y', so the Porter stemmer and the
// stopword list leave a marker word intact.
const markerAlphabet = "bcdfghjklmnpqrtvwxz"

// marker is the unique word written document i of a seed's stream carries;
// a keyword search for it must return exactly that document.
func marker(seed int64, i int) string {
	var b strings.Builder
	b.WriteString("zq")
	for _, v := range []int64{seed, int64(i)} {
		if v < 0 {
			v = -v
		}
		for {
			b.WriteByte(markerAlphabet[v%int64(len(markerAlphabet))])
			v /= int64(len(markerAlphabet))
			if v == 0 {
				break
			}
		}
		b.WriteByte('x')
	}
	return b.String()
}

// doc builds written document i: a reshuffled citation title plus its
// marker, a body from another title, and the ATM terms of the title.
func (cv *corpusView) doc(rng *rand.Rand, seed int64, i int) (csrank.Document, error) {
	words := strings.Fields(cv.titles[rng.Intn(len(cv.titles))])
	rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
	m := marker(seed, i)
	if got := cv.an.Analyze(m); len(got) != 1 || got[0] != m {
		return csrank.Document{}, fmt.Errorf("marker %q analyzes to %v", m, got)
	}
	return csrank.Document{
		Title:      strings.Join(append(words, m), " "),
		Body:       cv.titles[rng.Intn(len(cv.titles))],
		Predicates: cv.onto.Names(cv.onto.MapKeywords(words)),
	}, nil
}

// zipf draws ranks in [0, n) with probability ∝ 1/(rank+1) (s = 1.0,
// which math/rand's Zipf does not support).
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	return int(math.Min(float64(i), float64(len(z.cdf)-1)))
}
