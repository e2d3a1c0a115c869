package views

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"csrank/internal/fsx"
	"csrank/internal/snapshot"
)

// Catalog holds the materialized views selected for a collection, plus
// the selection thresholds, and answers the query-time matching question:
// which usable view (if any) should compute the statistics of context P?
// Per §6.3, when several views are usable the one with minimal size wins,
// since answering cost is proportional to ViewSize.
type Catalog struct {
	views []*View
	// exact indexes views by the signature of their keyword set K,
	// mapping to the earliest (hence smallest, by the sort order) view
	// with exactly that K. A context equal to some view's K hits here in
	// O(|P|) instead of scanning the catalog; ViewSize monotonicity
	// (K ⊆ K' ⇒ Size(V_K) ≤ Size(V_K')) guarantees the exact view has
	// minimal size among all usable views.
	exact map[string]int
	// bandStart[i] is the index of the first view whose Size equals
	// views[i]'s — the start of i's equal-size band. An exact hit must
	// still check the earlier views of its band: the linear scan would
	// have returned the first usable equal-size view, and Match promises
	// the same answer. Views in strictly earlier bands cannot be usable
	// for the exact view's K: all views are materialized over one data
	// snapshot at construction, so ViewSize monotonicity held when the
	// order was fixed. (Usable itself depends only on the immutable K
	// sets, so later incremental maintenance never changes any Match
	// answer — it only drifts sizes, which both paths ignore.)
	bandStart []int
	// ContextThreshold is T_C: contexts at least this large are covered.
	ContextThreshold int64
	// ViewSizeLimit is T_V: the maximum non-empty tuple count per view.
	ViewSizeLimit int
}

// NewCatalog builds a catalog from materialized views. Views are kept in
// ascending size order so Match scans from the cheapest candidate, and
// indexed by keyword-set signature so exact-K contexts match in O(|P|).
func NewCatalog(vs []*View, tc int64, tv int) *Catalog {
	sorted := append([]*View(nil), vs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Size() < sorted[j].Size() })
	c := &Catalog{views: sorted, ContextThreshold: tc, ViewSizeLimit: tv}
	c.exact = make(map[string]int, len(sorted))
	c.bandStart = make([]int, len(sorted))
	for i, v := range sorted {
		if i > 0 && sorted[i-1].Size() == v.Size() {
			c.bandStart[i] = c.bandStart[i-1]
		} else {
			c.bandStart[i] = i
		}
		sig := keySignature(v.K())
		if _, dup := c.exact[sig]; !dup {
			c.exact[sig] = i
		}
	}
	return c
}

// keySignature joins a sorted, deduplicated term set into a map key.
// Analyzed terms never contain NUL, so the join is collision-free; Match
// re-verifies the hit anyway, so even a pathological collision cannot
// produce a wrong view.
func keySignature(terms []string) string {
	return strings.Join(terms, "\x00")
}

// canonicalTerms returns p sorted and deduplicated, copying only when p
// is not already canonical (the engine's analyzer always hands Match
// canonical contexts, so the common case allocates nothing).
func canonicalTerms(p []string) []string {
	for i := 1; i < len(p); i++ {
		if p[i] <= p[i-1] {
			q := append([]string(nil), p...)
			sort.Strings(q)
			return dedupSorted(q)
		}
	}
	return p
}

// Views returns the catalog's views in ascending size order.
func (c *Catalog) Views() []*View { return c.views }

// Len returns the number of views.
func (c *Catalog) Len() int { return len(c.views) }

// Match returns the smallest usable view for context p, or nil if no view
// covers p (the engine then falls back to the straightforward
// evaluation). Contexts equal to some view's keyword set — the common
// case when view selection mined the query workload — resolve through
// the signature index without scanning the catalog; everything else
// falls back to the ordered subset scan. Both paths return exactly the
// view the plain linear scan would.
func (c *Catalog) Match(p []string) *View {
	q := canonicalTerms(p)
	if i, ok := c.exact[keySignature(q)]; ok {
		v := c.views[i]
		// Re-verify the hit (collision paranoia): p ⊆ K plus equal
		// cardinality of two duplicate-free sets means K == p.
		if len(v.K()) == len(q) && v.Usable(q) {
			// The exact view has minimal size among usable views, but the
			// linear scan returns the *first* usable view in sort order:
			// an earlier view in the same equal-size band wins if usable.
			for j := c.bandStart[i]; j < i; j++ {
				if c.views[j].Usable(q) {
					return c.views[j]
				}
			}
			return v
		}
	}
	for _, v := range c.views {
		if v.Usable(q) {
			return v
		}
	}
	return nil
}

// MatchFirst returns the first view (in insertion order before sorting,
// i.e. arbitrary) that is usable — the naive matching policy used by the
// view-matching ablation. Production code should use Match.
func (c *Catalog) MatchFirst(p []string) *View {
	for i := len(c.views) - 1; i >= 0; i-- {
		if c.views[i].Usable(p) {
			return c.views[i]
		}
	}
	return nil
}

// TotalBytes returns the summed storage estimate of all views (the §6.2
// "total storage of the materialized views").
func (c *Catalog) TotalBytes() int64 {
	var b int64
	for _, v := range c.views {
		b += v.Bytes()
	}
	return b
}

// MaxBytes returns the largest single-view storage estimate.
func (c *Catalog) MaxBytes() int64 {
	var m int64
	for _, v := range c.views {
		if b := v.Bytes(); b > m {
			m = b
		}
	}
	return m
}

// MeanSize returns the average non-empty tuple count across views.
func (c *Catalog) MeanSize() float64 {
	if len(c.views) == 0 {
		return 0
	}
	var s int64
	for _, v := range c.views {
		s += int64(v.Size())
	}
	return float64(s) / float64(len(c.views))
}

// persistence ----------------------------------------------------------
//
// Framed snapshots of catalog format 2 store each view's flat layout as
// is. Format 1 framed snapshots, and raw gob files from before framing,
// store one record per group with df/tc maps; Encode and Decode keep
// that format for SaveFileLegacy and read it into the flat layout.

type persistentGroup struct {
	Key   string
	Count int64
	Len   int64
	DF    map[string]int64
	TC    map[string]int64
}

type persistentView struct {
	K       []string
	Tracked []string
	Groups  []persistentGroup
}

type persistentCatalog struct {
	ContextThreshold int64
	ViewSizeLimit    int
	Views            []persistentView
}

// flatView is one view in catalog format 2: Patterns, Count and Len hold
// the non-empty groups, and the per-word columns are concatenated —
// tracked word c's cells are Group, DF and TC[ColStart[c]:ColStart[c+1]].
type flatView struct {
	K        []string
	Tracked  []string
	Patterns []uint64
	Count    []int64
	Len      []int64
	ColStart []int64
	Group    []int32
	DF       []int64
	TC       []int64
}

type flatCatalog struct {
	ContextThreshold int64
	ViewSizeLimit    int
	Views            []flatView
}

// Encode serializes the catalog with encoding/gob in the legacy
// per-group format (the payload of format 1 and of pre-frame files).
func (c *Catalog) Encode(w io.Writer) error {
	p := persistentCatalog{
		ContextThreshold: c.ContextThreshold,
		ViewSizeLimit:    c.ViewSizeLimit,
		Views:            make([]persistentView, len(c.views)),
	}
	for i, v := range c.views {
		pv := persistentView{K: v.k, Tracked: v.TrackedWords()}
		r := v.rows()
		// liveKeys is sorted: deterministic output order.
		for _, key := range v.liveKeys() {
			g := v.group[key]
			pg := persistentGroup{Key: key, Count: v.counts[g], Len: v.lens[g],
				DF: make(map[string]int64), TC: make(map[string]int64)}
			for j := r.start[g]; j < r.start[g+1]; j++ {
				w := v.tracked[r.word[j]]
				pg.DF[w], pg.TC[w] = r.df[j], r.tc[j]
			}
			pv.Groups = append(pv.Groups, pg)
		}
		p.Views[i] = pv
	}
	return gob.NewEncoder(w).Encode(&p)
}

// Decode deserializes a catalog written by Encode.
func Decode(r io.Reader) (*Catalog, error) {
	var p persistentCatalog
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	vs := make([]*View, len(p.Views))
	for i, pv := range p.Views {
		v, err := fromLegacy(pv)
		if err != nil {
			return nil, fmt.Errorf("views: decode: view %d: %w", i, err)
		}
		vs[i] = v
	}
	return NewCatalog(vs, p.ContextThreshold, p.ViewSizeLimit), nil
}

// fromLegacy converts one per-group view record to the flat layout.
func fromLegacy(pv persistentView) (*View, error) {
	if !strictlySorted(pv.K) {
		return nil, fmt.Errorf("keyword columns %q are not sorted and distinct", pv.K)
	}
	v := newView(pv.K, pv.Tracked)
	groups := pv.Groups
	sort.Slice(groups, func(a, b int) bool { return groups[a].Key < groups[b].Key })
	for _, pg := range groups {
		if want := (len(v.k) + 7) / 8; len(pg.Key) != want {
			return nil, fmt.Errorf("group %x has a %d-byte pattern, want %d", pg.Key, len(pg.Key), want)
		}
		if _, dup := v.group[pg.Key]; dup {
			return nil, fmt.Errorf("group %x appears twice", pg.Key)
		}
		g := v.addGroup(pg.Key)
		v.counts[g], v.lens[g] = pg.Count, pg.Len
		// Groups are visited in slot order, so appending keeps every
		// column sorted by group.
		for w, df := range pg.DF {
			tc := pg.TC[w]
			if df < 0 || tc < 0 {
				return nil, fmt.Errorf("group %x has negative df/tc for %q", pg.Key, w)
			}
			c, ok := v.col[w]
			switch {
			case df == 0:
				continue
			case !ok:
				return nil, fmt.Errorf("group %x has df/tc for untracked word %q", pg.Key, w)
			}
			col := &v.cols[c]
			col.group = append(col.group, g)
			col.df = append(col.df, df)
			col.tc = append(col.tc, tc)
		}
	}
	v.size = len(v.counts)
	return v, v.check()
}

// encodeFlat serializes the catalog in format 2.
func (c *Catalog) encodeFlat(w io.Writer) error {
	p := flatCatalog{
		ContextThreshold: c.ContextThreshold,
		ViewSizeLimit:    c.ViewSizeLimit,
		Views:            make([]flatView, len(c.views)),
	}
	for i, v := range c.views {
		p.Views[i] = v.flat()
	}
	return gob.NewEncoder(w).Encode(&p)
}

// flat renders the view in format 2, renumbering the non-empty groups
// densely.
func (v *View) flat() flatView {
	fv := flatView{
		K:        v.k,
		Tracked:  v.tracked,
		Patterns: make([]uint64, 0, v.size*v.words),
		Count:    make([]int64, 0, v.size),
		Len:      make([]int64, 0, v.size),
		ColStart: make([]int64, len(v.cols)+1),
	}
	slot := make([]int32, len(v.counts))
	for g, n := range v.counts {
		if n == 0 {
			continue
		}
		slot[g] = int32(len(fv.Count))
		fv.Patterns = append(fv.Patterns, v.pats[g*v.words:(g+1)*v.words]...)
		fv.Count = append(fv.Count, n)
		fv.Len = append(fv.Len, v.lens[g])
	}
	for c, col := range v.cols {
		for j, g := range col.group {
			fv.Group = append(fv.Group, slot[g])
			fv.DF = append(fv.DF, col.df[j])
			fv.TC = append(fv.TC, col.tc[j])
		}
		fv.ColStart[c+1] = int64(len(fv.Group))
	}
	return fv
}

// decodeFlat deserializes a catalog written by encodeFlat.
func decodeFlat(r io.Reader) (*Catalog, error) {
	var p flatCatalog
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	vs := make([]*View, len(p.Views))
	for i, fv := range p.Views {
		v, err := fromFlat(fv)
		if err != nil {
			return nil, fmt.Errorf("views: decode: view %d: %w", i, err)
		}
		vs[i] = v
	}
	return NewCatalog(vs, p.ContextThreshold, p.ViewSizeLimit), nil
}

// fromFlat adopts one format 2 view record as the view's arrays, after
// checking that every length and offset fits.
func fromFlat(fv flatView) (*View, error) {
	if !strictlySorted(fv.K) {
		return nil, fmt.Errorf("keyword columns %q are not sorted and distinct", fv.K)
	}
	if !strictlySorted(fv.Tracked) {
		return nil, fmt.Errorf("tracked words are not sorted and distinct")
	}
	v := newView(fv.K, fv.Tracked)
	n := len(fv.Count)
	switch {
	case n > math.MaxInt32:
		return nil, fmt.Errorf("%d groups exceed the group id range", n)
	case len(fv.Len) != n || len(fv.Patterns) != n*v.words:
		return nil, fmt.Errorf("%d groups but %d lengths and %d pattern words (%d per group)", n, len(fv.Len), len(fv.Patterns), v.words)
	case len(fv.ColStart) != len(v.cols)+1:
		return nil, fmt.Errorf("%d column offsets for %d tracked words", len(fv.ColStart), len(v.cols))
	case len(fv.DF) != len(fv.Group) || len(fv.TC) != len(fv.Group):
		return nil, fmt.Errorf("%d cell groups but %d df and %d tc values", len(fv.Group), len(fv.DF), len(fv.TC))
	case fv.ColStart[0] != 0 || fv.ColStart[len(v.cols)] != int64(len(fv.Group)):
		return nil, fmt.Errorf("column offsets span [%d, %d), want [0, %d)", fv.ColStart[0], fv.ColStart[len(v.cols)], len(fv.Group))
	}
	for c := range v.cols {
		lo, hi := fv.ColStart[c], fv.ColStart[c+1]
		if hi < lo || hi > int64(len(fv.Group)) {
			return nil, fmt.Errorf("column %q has offsets [%d, %d) outside [0, %d)", v.tracked[c], lo, hi, len(fv.Group))
		}
		// Capped slices: a later insertion reallocates rather than
		// overwriting the next column's cells.
		v.cols[c] = column{group: fv.Group[lo:hi:hi], df: fv.DF[lo:hi:hi], tc: fv.TC[lo:hi:hi]}
	}
	v.pats, v.counts, v.lens, v.size = fv.Patterns, fv.Count, fv.Len, n
	if err := v.check(); err != nil {
		return nil, err
	}
	for g := range v.counts {
		key := v.key(int32(g))
		if _, dup := v.group[key]; dup {
			return nil, fmt.Errorf("group %x appears twice", key)
		}
		v.group[key] = int32(g)
	}
	return v, nil
}

// check verifies the invariants a decoded view must hold before it may
// answer queries or be maintained: every group is non-empty with
// non-negative aggregates and no pattern bit beyond |K|, and every
// column's cells name distinct groups in ascending order, each with
// 1 ≤ df ≤ the group's count and tc ≥ 0. Aggregates of a group-by over
// real documents hold these by construction; a violation can only be
// corruption, which would silently poison every ranking that consults
// the view.
func (v *View) check() error {
	var beyond uint64 // pattern bits past |K| in a group's last word
	if r := len(v.k) % 64; r != 0 {
		beyond = ^uint64(0) << r
	}
	for g, n := range v.counts {
		if n < 0 || v.lens[g] < 0 {
			return fmt.Errorf("group %d has negative aggregates (count=%d len=%d)", g, n, v.lens[g])
		}
		if n == 0 {
			return fmt.Errorf("group %d is empty", g)
		}
		if v.words > 0 && v.pats[(g+1)*v.words-1]&beyond != 0 {
			return fmt.Errorf("group %d sets pattern bits beyond |K|=%d", g, len(v.k))
		}
	}
	for c, col := range v.cols {
		w := v.tracked[c]
		for j, g := range col.group {
			switch {
			case g < 0 || int(g) >= len(v.counts):
				return fmt.Errorf("column %q names group %d of %d", w, g, len(v.counts))
			case j > 0 && g <= col.group[j-1]:
				return fmt.Errorf("column %q is not strictly sorted by group at cell %d", w, j)
			case col.df[j] < 0 || col.tc[j] < 0:
				return fmt.Errorf("group %d has negative df/tc for %q", g, w)
			case col.df[j] == 0:
				return fmt.Errorf("column %q has an empty cell for group %d", w, g)
			case col.df[j] > v.counts[g]:
				return fmt.Errorf("group %d has df(%s)=%d above its count %d", g, w, col.df[j], v.counts[g])
			}
		}
	}
	return nil
}

func strictlySorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// CatalogFormatVersion is the app-level version recorded in the framed
// snapshot header for catalog payloads: 2 is the flat layout, 1 the
// legacy per-group records (still read).
const CatalogFormatVersion = 2

// WriteSnapshot writes the catalog to w in the framed snapshot format:
// magic header, format version, per-section CRC32-C, whole-file trailer.
func (c *Catalog) WriteSnapshot(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, snapshot.KindViews, CatalogFormatVersion)
	if err != nil {
		return err
	}
	if err := c.encodeFlat(sw); err != nil {
		return err
	}
	return sw.Close()
}

// ReadSnapshot reads a catalog from a framed snapshot of format 2 or 1,
// or from a legacy raw-gob stream (sniffed by magic), verifying all
// checksums in the framed case.
func ReadSnapshot(r io.Reader) (*Catalog, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := br.Peek(len(snapshot.Magic))
	if err != nil || !snapshot.IsFramed(prefix) {
		return Decode(br)
	}
	sr, err := snapshot.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	if kind := sr.Header().Kind; kind != snapshot.KindViews {
		return nil, fmt.Errorf("views: snapshot holds payload kind %d, want %d (views)", kind, snapshot.KindViews)
	}
	var c *Catalog
	switch v := sr.Header().PayloadVersion; v {
	case CatalogFormatVersion:
		c, err = decodeFlat(sr)
	case 1:
		c, err = Decode(sr)
	default:
		return nil, fmt.Errorf("views: unsupported catalog format version %d", v)
	}
	if err != nil {
		return nil, err
	}
	if err := sr.Verify(); err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	return c, nil
}

// SaveFile writes the catalog to path as a framed, checksummed snapshot
// with an atomic write-to-temp + fsync + rename protocol: a crash at any
// instant leaves either the previous file or the complete new one.
func (c *Catalog) SaveFile(path string) error {
	return c.SaveFileFS(fsx.OS, path)
}

// SaveFileFS is SaveFile against an explicit filesystem (fault-injection
// tests substitute a crashing one).
func (c *Catalog) SaveFileFS(fs fsx.FS, path string) error {
	return fsx.WriteFileAtomic(fs, path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := c.WriteSnapshot(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// SaveFileLegacy writes the catalog as a raw gob stream — the pre-frame
// on-disk format, for toolchains that read views.gob without this
// package. The write is still atomic (temp + fsync + rename); only the
// per-section checksums are given up.
func (c *Catalog) SaveFileLegacy(path string) error {
	return fsx.WriteFileAtomic(fsx.OS, path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := c.Encode(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// LoadFile reads a catalog written by SaveFile — current framed files
// and pre-frame raw gob files alike.
func LoadFile(path string) (*Catalog, error) {
	return LoadFileFS(fsx.OS, path)
}

// LoadFileFS is LoadFile against an explicit filesystem.
func LoadFileFS(fs fsx.FS, path string) (*Catalog, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
