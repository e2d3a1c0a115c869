// Package index implements a multi-field inverted index over a document
// collection: the "standard text search system" substrate the paper builds
// on (the role Lucene plays in the paper's experiments). Each field has its
// own term dictionary and posting lists; per-document field lengths are kept
// for ranking; the whole index serializes with encoding/gob.
package index

import (
	"fmt"
	"sort"

	"csrank/internal/analysis"
	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// DocID identifies a document within an index. IDs are dense and assigned
// in insertion order starting at 0, which keeps posting lists sorted by
// construction.
type DocID = uint32

// FieldSpec declares one indexed field and the analyzer applied to it.
type FieldSpec struct {
	Name     string
	Analyzer *analysis.Analyzer
	// Stored retains the raw field text for retrieval-time display.
	Stored bool
}

// Schema describes the indexed fields of a collection and which field holds
// context predicates (the controlled vocabulary, e.g. MeSH annotations).
type Schema struct {
	Fields []FieldSpec
	// PredicateField names the field whose terms may appear in context
	// specifications. It must be one of Fields.
	PredicateField string
	// ContentField names the default field searched by keyword queries and
	// used for document lengths in ranking. It must be one of Fields.
	ContentField string
}

// Validate checks internal consistency of the schema.
func (s *Schema) Validate() error {
	names := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("index: schema has unnamed field")
		}
		if names[f.Name] {
			return fmt.Errorf("index: duplicate field %q", f.Name)
		}
		if f.Analyzer == nil {
			return fmt.Errorf("index: field %q has no analyzer", f.Name)
		}
		names[f.Name] = true
	}
	if !names[s.PredicateField] {
		return fmt.Errorf("index: predicate field %q is not declared", s.PredicateField)
	}
	if !names[s.ContentField] {
		return fmt.Errorf("index: content field %q is not declared", s.ContentField)
	}
	return nil
}

// Document is the unit of indexing: raw text per field name. Fields absent
// from the schema are ignored.
type Document struct {
	Fields map[string]string
}

// fieldIndex holds one field's dictionary and aggregate statistics.
type fieldIndex struct {
	terms    map[string]*postings.List
	totalLen int64 // sum of per-document field lengths
	// totalTF caches tc(w, D) per term — the whole-collection term count
	// used by language models — so the query path never scans a full
	// posting list for a global statistic.
	totalTF map[string]int64
}

// Index is an immutable inverted index built by a Builder, loaded from a
// gob snapshot, or opened from a memory-mapped format-v4 file. The three
// share every accessor; a mapped index additionally owns its paged image
// and the decoded-block cache, and must be Closed when done.
type Index struct {
	schema  Schema
	fields  map[string]*fieldIndex
	lengths map[string][]int32 // field -> per-doc token counts
	stored  map[string][]string
	numDocs int
	segSize int

	// Mapped-index state (nil / empty for heap indexes).
	paged   *snapshot.PagedFile
	mapping *fsx.Mapping
	cache   *postings.BlockCache
	stviews map[string]*storedView // stored fields read in place
	// quar is the index-wide corrupt-block registry: a mapped block that
	// fails its CRC at materialization is blacklisted and served as an
	// empty container instead of panicking the query (see
	// postings.Quarantine). Nil for heap indexes.
	quar *postings.Quarantine
}

// Quarantined returns how many mapped blocks this index has blacklisted
// after failing payload validation on the query path (0 for heap
// indexes). A non-zero count means some containers read as empty and
// results over them are degraded; Verify still reports the underlying
// corruption.
func (ix *Index) Quarantined() int64 { return ix.quar.Blocks() }

// QuarantineDetails returns a bounded sample of the blacklisted blocks'
// corruption reports (nil for heap indexes or when nothing is
// quarantined).
func (ix *Index) QuarantineDetails() []string { return ix.quar.Details() }

// Schema returns the schema the index was built with.
func (ix *Index) Schema() Schema { return ix.schema }

// NumDocs returns the collection cardinality |D|.
func (ix *Index) NumDocs() int { return ix.numDocs }

// SegmentSize returns the skip-segment size (M0) of the index's lists.
func (ix *Index) SegmentSize() int { return ix.segSize }

// Postings returns the inverted list for term in field, or nil if either is
// unknown. The returned list is shared and must not be modified.
func (ix *Index) Postings(field, term string) *postings.List {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	return fi.terms[term]
}

// DF returns the document frequency df(term, D) in field.
func (ix *Index) DF(field, term string) int64 {
	if l := ix.Postings(field, term); l != nil {
		return int64(l.Len())
	}
	return 0
}

// TotalTF returns the collection term count tc(term, D) in field: the
// total number of occurrences across all documents. Precomputed at build
// (and rebuilt at load), so it is O(1) at query time.
func (ix *Index) TotalTF(field, term string) int64 {
	if fi := ix.fields[field]; fi != nil {
		return fi.totalTF[term]
	}
	return 0
}

// FieldLen returns the token count of doc's field (len(d) for that field).
func (ix *Index) FieldLen(doc DocID, field string) int64 {
	ls := ix.lengths[field]
	if ls == nil || int(doc) >= len(ls) {
		return 0
	}
	return int64(ls[doc])
}

// FieldLens returns field's per-document length column, indexed by
// DocID (nil for an unknown field). The slice is shared — over a mapped
// index it aliases the mapping — and must not be modified. Scoring loops
// resolve it once instead of calling FieldLen per document.
func (ix *Index) FieldLens(field string) []int32 { return ix.lengths[field] }

// TotalFieldLen returns Σ_d len(d) over the whole collection for field
// (len(D) in the paper).
func (ix *Index) TotalFieldLen(field string) int64 {
	if fi := ix.fields[field]; fi != nil {
		return fi.totalLen
	}
	return 0
}

// UniqueTerms returns the dictionary size utc(D) of field.
func (ix *Index) UniqueTerms(field string) int {
	if fi := ix.fields[field]; fi != nil {
		return len(fi.terms)
	}
	return 0
}

// Terms returns field's dictionary sorted lexicographically. It allocates;
// intended for offline phases (view selection, corpus inspection), not the
// query path.
func (ix *Index) Terms(field string) []string {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	out := make([]string, 0, len(fi.terms))
	for t := range fi.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TermsWithMinDF returns field terms whose document frequency is at least
// minDF, sorted by descending DF then term. This is the "frequent keywords"
// primitive used both by view selection (predicate terms with |L_m| ≥ T_C)
// and by the view storage optimization (df columns only for |L_w| ≥ T_C).
func (ix *Index) TermsWithMinDF(field string, minDF int64) []string {
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	out := make([]string, 0, 64)
	for t, l := range fi.terms {
		if int64(l.Len()) >= minDF {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := fi.terms[out[i]].Len(), fi.terms[out[j]].Len()
		if a != b {
			return a > b
		}
		return out[i] < out[j]
	})
	return out
}

// StoredField returns the stored raw text of field for doc ("" if the field
// is not stored or the doc is out of range).
func (ix *Index) StoredField(doc DocID, field string) string {
	if v, ok := ix.stviews[field]; ok {
		// Mapped index: the string materializes from the mapping on
		// demand; nothing was decoded at open time.
		return v.at(doc)
	}
	vs := ix.stored[field]
	if vs == nil || int(doc) >= len(vs) {
		return ""
	}
	return vs[doc]
}

// AnalyzerFor returns the analyzer declared for field, or nil.
func (ix *Index) AnalyzerFor(field string) *analysis.Analyzer {
	for _, f := range ix.schema.Fields {
		if f.Name == field {
			return f.Analyzer
		}
	}
	return nil
}

// PostingsBytes estimates the resident footprint of the index's posting
// data in bytes: the adaptive containers' payload (2 bytes per sparse key,
// 8 KiB per dense bitset chunk, 4 bytes per explicit TF) plus dictionary
// strings. Used by the storage-accounting experiment (§6.2).
func (ix *Index) PostingsBytes() int64 {
	var total int64
	for _, fi := range ix.fields {
		for t, l := range fi.terms {
			total += int64(len(t)) + l.Bytes()
		}
	}
	return total
}

// ContainerStats summarizes how a field's posting lists are stored in the
// adaptive container layer.
type ContainerStats struct {
	Lists        int
	Postings     int64
	SparseChunks int
	DenseChunks  int
	TFLists      int // lists carrying an explicit TF array
	Bytes        int64
	// BoundedLists counts lists carrying per-container score-bound
	// metadata (format v3); MaxTF and MinDocLen summarize the list-level
	// ceilings across them (the loosest bounds pruning ever works with).
	BoundedLists int
	MaxTF        uint32
	MinDocLen    int32
}

// ContainerStats reports the container breakdown of one field's lists.
func (ix *Index) ContainerStats(field string) ContainerStats {
	var cs ContainerStats
	fi := ix.fields[field]
	if fi == nil {
		return cs
	}
	cs.Lists = len(fi.terms)
	for _, l := range fi.terms {
		cs.Postings += int64(l.Len())
		s, d := l.Containers()
		cs.SparseChunks += s
		cs.DenseChunks += d
		if l.HasTFs() {
			cs.TFLists++
		}
		if l.HasBounds() {
			if cs.BoundedLists == 0 || l.MinDocLen() < cs.MinDocLen {
				cs.MinDocLen = l.MinDocLen()
			}
			cs.BoundedLists++
			if l.MaxTF() > cs.MaxTF {
				cs.MaxTF = l.MaxTF()
			}
		}
		cs.Bytes += l.Bytes()
	}
	return cs
}

// FieldBlockStats aggregates the format-v4 block layout over one field's
// posting lists: encoding mix and on-disk footprint. On a mapped index
// this reads block directories; on a heap index it measures what
// SaveMapped would write, so csbuild can report the disk footprint of
// either representation.
func (ix *Index) FieldBlockStats(field string) postings.BlockStats {
	var bs postings.BlockStats
	fi := ix.fields[field]
	if fi == nil {
		return bs
	}
	for _, l := range fi.terms {
		bs.AddTo(l.BlockStats())
	}
	return bs
}
