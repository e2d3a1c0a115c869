// Package views implements the materialized-view technique of §4: a view
// V_K groups the wide sparse table by a set K of keyword columns and
// stores, per non-empty group, the aggregated parameters that
// collection-specific statistics need — COUNT(*) (context cardinality),
// SUM(len(d)) (context length), and per-tracked-word document counts and
// term counts (df/tc columns, kept only for frequent words per the §6.2
// storage optimization).
//
// Answering S_c(D_P) from a usable view (P ⊆ K, Theorem 4.1) scans the
// view's non-empty groups and sums those whose bit pattern covers P —
// O(ViewSize) regardless of the context size (Theorem 4.2).
package views

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"csrank/internal/postings"
	"csrank/internal/widetable"
)

// View is a materialized view V_K. Its groups and cells live in flat,
// pointer-free arrays, which the garbage collector never scans however
// many df/tc cells a catalog holds:
//
//   - group g's membership bit pattern over K is
//     pats[g*words:(g+1)*words], bit i set iff the group's documents
//     carry predicate k[i];
//   - counts[g] and lens[g] are its COUNT(*) and SUM(len(d));
//   - cols[c] holds tracked word tracked[c]'s cells: one (group, df, tc)
//     per group containing the word, sorted by group.
//
// A group whose last document is removed keeps its slot with counts[g]
// = 0 and no cells. It is not counted by Size, scanned by Answer, or
// written by Fingerprint and the encoders, and a later Apply with its
// pattern reuses the slot.
type View struct {
	// k holds the keyword columns K, sorted.
	k []string
	// pos maps a keyword to its bit position within the pattern.
	pos map[string]int
	// words is the pattern width in uint64 words: ⌈|K|/64⌉.
	words int
	pats  []uint64
	// counts and lens are the per-group aggregates.
	counts, lens []int64
	// size is the number of non-empty groups (counts[g] > 0).
	size int
	// group maps a group's packed pattern (see key) to its slot.
	group map[string]int32
	// tracked lists the words with df/tc columns, sorted; col maps each
	// to its index in tracked and cols.
	tracked []string
	col     map[string]int
	cols    []column
}

// column is one tracked word's df/tc cells, sorted by group.
type column struct {
	group  []int32
	df, tc []int64
}

// answerCheckStride is how many groups an Answer scan processes between
// cancellation polls.
const answerCheckStride = 512

// ContextStats is the bundle of collection-specific statistics for one
// context, as answered by a view or computed directly.
type ContextStats struct {
	// Count is |D_P|.
	Count int64
	// Len is len(D_P).
	Len int64
	// DF maps each requested word w to df(w, D_P).
	DF map[string]int64
	// TC maps each requested word w to tc(w, D_P).
	TC map[string]int64
}

// Materialize builds V_K from the wide sparse table. K is deduplicated
// and sorted; trackedWords selects the df/tc parameter columns (words
// absent from the table's tf columns are ignored). Unknown keyword
// columns are an error.
func Materialize(t *widetable.Table, k []string, trackedWords []string) (*View, error) {
	var words []string
	for _, w := range trackedWords {
		if t.Tracked(w) {
			words = append(words, w)
		}
	}
	v := newView(k, words)
	cols := make([]widetable.ColID, len(v.k))
	for i, name := range v.k {
		id, ok := t.ColumnID(name)
		if !ok {
			return nil, fmt.Errorf("views: unknown keyword column %q", name)
		}
		cols[i] = id
	}

	// Pass 1: group every document by its membership pattern, keeping the
	// per-document group so the sparse tf columns can be folded in
	// without probing every (document, word) pair.
	docGroup := make([]int32, t.NumDocs())
	buf := make([]byte, (len(v.k)+7)/8)
	for d := range docGroup {
		// cols is ascending (ColIDs are assigned in sorted-name order and
		// v.k is sorted), so one merge walk replaces per-column probes.
		t.FillPattern(d, cols, buf)
		g, ok := v.group[string(buf)]
		if !ok {
			g = v.addGroup(string(buf))
		}
		v.counts[g]++
		v.lens[g] += t.Len(d)
		docGroup[d] = g
	}
	v.size = len(v.counts)
	// Pass 2: per tracked word, walk its sparse column — cost is the
	// word's document frequency, not the collection size — summing into
	// per-group scratch, then emit the touched groups in order as the
	// word's cells.
	df := make([]int64, len(v.counts))
	tc := make([]int64, len(v.counts))
	var touched []int32
	for c, w := range v.tracked {
		for docID, tf := range t.TFColumn(w) {
			if tf > 0 {
				g := docGroup[docID]
				if df[g] == 0 {
					touched = append(touched, g)
				}
				df[g]++
				tc[g] += tf
			}
		}
		slices.Sort(touched)
		col := column{
			group: slices.Clone(touched),
			df:    make([]int64, len(touched)),
			tc:    make([]int64, len(touched)),
		}
		for i, g := range touched {
			col.df[i], col.tc[i] = df[g], tc[g]
			df[g], tc[g] = 0, 0
		}
		v.cols[c] = col
		touched = touched[:0]
	}
	return v, nil
}

// newView returns an empty view over keyword columns k tracking words;
// both are sorted and deduplicated.
func newView(k, tracked []string) *View {
	ks := append([]string(nil), k...)
	sort.Strings(ks)
	ks = dedupSorted(ks)
	ts := append([]string(nil), tracked...)
	sort.Strings(ts)
	ts = dedupSorted(ts)
	v := &View{
		k:       ks,
		pos:     make(map[string]int, len(ks)),
		words:   (len(ks) + 63) / 64,
		group:   make(map[string]int32),
		tracked: ts,
		col:     make(map[string]int, len(ts)),
		cols:    make([]column, len(ts)),
	}
	for i, name := range ks {
		v.pos[name] = i
	}
	for i, w := range ts {
		v.col[w] = i
	}
	return v
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// key packs group g's pattern into ⌈|K|/8⌉ bytes, membership in k[i]
// being bit i%8 of byte i/8: the group identity used by the group index,
// Fingerprint, Drift and the legacy format.
func (v *View) key(g int32) string {
	b := make([]byte, (len(v.k)+7)/8)
	row := v.pats[int(g)*v.words:]
	for i := range b {
		b[i] = byte(row[i/8] >> (8 * (i % 8)))
	}
	return string(b)
}

// addGroup appends an empty group with the packed pattern key and
// returns its slot.
func (v *View) addGroup(key string) int32 {
	g := int32(len(v.counts))
	for w := 0; w < v.words; w++ {
		var x uint64
		for i := 0; i < 8 && w*8+i < len(key); i++ {
			x |= uint64(key[w*8+i]) << (8 * i)
		}
		v.pats = append(v.pats, x)
	}
	v.counts = append(v.counts, 0)
	v.lens = append(v.lens, 0)
	v.group[key] = g
	return g
}

// live returns the slot of the non-empty group with pattern key.
func (v *View) live(key string) (int32, bool) {
	g, ok := v.group[key]
	return g, ok && v.counts[g] > 0
}

// K returns the view's keyword columns, sorted. Callers must not modify
// the returned slice.
func (v *View) K() []string { return v.k }

// Size returns ViewSize(V_K): the number of non-empty groups.
func (v *View) Size() int { return v.size }

// TracksWord reports whether the view stores df/tc columns for w.
func (v *View) TracksWord(w string) bool {
	_, ok := v.col[w]
	return ok
}

// TrackedWords returns the words with df/tc columns, sorted.
func (v *View) TrackedWords() []string { return slices.Clone(v.tracked) }

// Usable implements Theorem 4.1's second condition: the view can answer
// statistics for context P iff P ⊆ K. (The first condition — the view
// carries the needed parameter column — is per-statistic: Count/Len are
// always stored; df/tc require TracksWord.)
func (v *View) Usable(p []string) bool {
	for _, m := range p {
		if _, ok := v.pos[m]; !ok {
			return false
		}
	}
	return true
}

// Answer computes the collection-specific statistics of context p from
// the view: |D_P|, len(D_P), and df/tc for every requested word the view
// tracks (untracked words are simply absent from the result maps — the
// caller computes them at query time per §6.2). The scan cost — one pass
// over the non-empty groups — is recorded in st.ViewGroupsScanned.
// Answer returns an error if the view is not usable for p.
func (v *View) Answer(p []string, words []string, st *postings.Stats) (ContextStats, error) {
	return v.AnswerCtx(context.Background(), p, words, st)
}

// AnswerCtx is Answer with cooperative cancellation: the group scan polls
// ctx every answerCheckStride groups, so even a scan of a large view
// stops promptly under a deadline. On cancellation the partial aggregates
// are discarded and ctx's error is returned (a partially summed Count
// would be silently wrong, unlike a prefix of an intersection).
//
// The answer takes two steps: one pass over the group patterns marks
// the groups covering p in a bitmap and sums their Count and Len, then
// each requested word's column adds the cells of marked groups. Both
// are bounded by ViewSize, as Theorem 4.2 requires.
func (v *View) AnswerCtx(ctx context.Context, p []string, words []string, st *postings.Stats) (ContextStats, error) {
	need := make([]uint64, v.words)
	for _, m := range p {
		pos, ok := v.pos[m]
		if !ok {
			return ContextStats{}, fmt.Errorf("views: view %v not usable for context %v", v.k, p)
		}
		need[pos/64] |= 1 << (pos % 64)
	}
	res := ContextStats{DF: make(map[string]int64), TC: make(map[string]int64)}
	covered := make([]uint64, (len(v.counts)+63)/64)
	scanned := int64(0)
	done := ctx.Done()
	for g, n := range v.counts {
		if n == 0 {
			continue
		}
		scanned++
		if done != nil && scanned%answerCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				if st != nil {
					st.ViewGroupsScanned += scanned
				}
				return ContextStats{}, err
			}
		}
		if !covers(v.pats[g*v.words:(g+1)*v.words], need) {
			continue
		}
		covered[g/64] |= 1 << (g % 64)
		res.Count += n
		res.Len += v.lens[g]
	}
	if st != nil {
		st.ViewGroupsScanned += scanned
	}
	for i, w := range words {
		c, ok := v.col[w]
		if !ok || slices.Contains(words[:i], w) {
			continue
		}
		col := &v.cols[c]
		var df, tc int64
		for j, g := range col.group {
			if covered[g/64]&(1<<(g%64)) != 0 {
				df += col.df[j]
				tc += col.tc[j]
			}
		}
		if df > 0 {
			res.DF[w] = df
			res.TC[w] = tc
		}
	}
	return res, nil
}

// covers reports whether pattern pat has every bit of need set.
func covers(pat, need []uint64) bool {
	for i, m := range need {
		if pat[i]&m != m {
			return false
		}
	}
	return true
}

// find returns the position of g's cell in the column, or where it
// would be inserted.
func (c *column) find(g int32) (int, bool) { return slices.BinarySearch(c.group, g) }

// add adds df and tc to g's cell, inserting the cell in group order if
// the column has none for g.
func (c *column) add(g int32, df, tc int64) {
	i, ok := c.find(g)
	if !ok {
		c.group = slices.Insert(c.group, i, g)
		c.df = slices.Insert(c.df, i, 0)
		c.tc = slices.Insert(c.tc, i, 0)
	}
	c.df[i] += df
	c.tc[i] += tc
}

// drop deletes the cell at position i.
func (c *column) drop(i int) {
	c.group = slices.Delete(c.group, i, i+1)
	c.df = slices.Delete(c.df, i, i+1)
	c.tc = slices.Delete(c.tc, i, i+1)
}

// rows is the view's cells transposed into per-group rows: group g's
// cells are at [start[g], start[g+1]) of word, df and tc, in ascending
// word order (word indexes tracked).
type rows struct {
	start  []int
	word   []int32
	df, tc []int64
}

func (v *View) rows() rows {
	r := rows{start: make([]int, len(v.counts)+1)}
	for _, col := range v.cols {
		for _, g := range col.group {
			r.start[g+1]++
		}
	}
	for g := range v.counts {
		r.start[g+1] += r.start[g]
	}
	n := r.start[len(v.counts)]
	r.word, r.df, r.tc = make([]int32, n), make([]int64, n), make([]int64, n)
	next := slices.Clone(r.start)
	for c, col := range v.cols {
		for j, g := range col.group {
			i := next[g]
			next[g]++
			r.word[i], r.df[i], r.tc[i] = int32(c), col.df[j], col.tc[j]
		}
	}
	return r
}

// liveKeys returns the packed patterns of the non-empty groups, sorted.
func (v *View) liveKeys() []string {
	keys := make([]string, 0, v.size)
	for key, g := range v.group {
		if v.counts[g] > 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// Bytes estimates the view's storage footprint: per group, the packed
// pattern plus two 8-byte aggregates plus 12 bytes per sparse df/tc
// entry (a word reference and a packed count pair).
func (v *View) Bytes() int64 {
	b := int64(v.size) * int64((len(v.k)+7)/8+16)
	for _, col := range v.cols {
		b += int64(len(col.group)) * 12
	}
	return b
}

// String implements fmt.Stringer.
func (v *View) String() string {
	return fmt.Sprintf("View{|K|=%d, size=%d}", len(v.k), v.Size())
}
