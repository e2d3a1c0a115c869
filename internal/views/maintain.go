package views

// Incremental maintenance: materialized views are group-by aggregates
// with distributive functions (COUNT, SUM), so appending or removing a
// document touches exactly one group per view — no re-materialization.
// This covers the operational gap the paper leaves open (PubMed grows by
// thousands of citations a day while the MeSH vocabulary, and therefore
// the selected K sets, stays stable).

import "fmt"

// DocUpdate describes one document for incremental view maintenance.
type DocUpdate struct {
	// Predicates are the document's predicate terms (after annotation
	// closure), in any order.
	Predicates []string
	// Len is the document's content length len(d).
	Len int64
	// TF maps content words to their term frequency in the document;
	// only words a view tracks contribute to that view.
	TF map[string]int64
}

// Apply folds one appended document into the view: the document's bit
// pattern over K is computed and that single group's aggregates are
// incremented (the group is created if it was empty).
func (v *View) Apply(u DocUpdate) {
	key := v.patternOf(u.Predicates)
	g, ok := v.group[key]
	if !ok {
		g = v.addGroup(key)
	}
	if v.counts[g] == 0 {
		v.size++
	}
	v.counts[g]++
	v.lens[g] += u.Len
	for w, tf := range u.TF {
		if c, ok := v.col[w]; ok && tf > 0 {
			v.cols[c].add(g, 1, tf)
		}
	}
}

// Remove folds one deleted document out of the view. The caller must
// pass the same DocUpdate the document was applied with (distributive
// views cannot reconstruct per-document contributions, which is why the
// ingestion pipeline write-ahead-logs every update). A mismatched
// removal — an unknown group, or any aggregate that would underflow —
// returns an error and leaves the group untouched, instead of silently
// corrupting the statistics every later query would rank with. A group
// whose count reaches zero is dropped, keeping ViewSize equal to the
// number of non-empty tuples.
func (v *View) Remove(u DocUpdate) error {
	key := v.patternOf(u.Predicates)
	if err := v.checkRemove(key, u); err != nil {
		return err
	}
	v.removeUnchecked(key, u)
	return nil
}

// cell returns group g's df and tc in column c (zero when it has none).
func (v *View) cell(c int, g int32) (df, tc int64) {
	col := &v.cols[c]
	if i, ok := col.find(g); ok {
		return col.df[i], col.tc[i]
	}
	return 0, 0
}

// checkRemove validates that removing u from the group at key keeps
// every aggregate consistent, without mutating anything.
func (v *View) checkRemove(key string, u DocUpdate) error {
	g, ok := v.live(key)
	if !ok {
		return fmt.Errorf("views: remove from unknown group %x (document was never applied with this pattern)", key)
	}
	count, length := v.counts[g], v.lens[g]
	if length < u.Len {
		return fmt.Errorf("views: group %x len %d < removed document len %d", key, length, u.Len)
	}
	if count == 1 && length != u.Len {
		return fmt.Errorf("views: removing the last document of group %x leaves residual len %d", key, length-u.Len)
	}
	for w, tf := range u.TF {
		c, ok := v.col[w]
		if tf <= 0 || !ok {
			continue
		}
		df, tc := v.cell(c, g)
		if df < 1 {
			return fmt.Errorf("views: group %x df(%s) would underflow", key, w)
		}
		if tc < tf {
			return fmt.Errorf("views: group %x tc(%s) %d < removed tf %d", key, w, tc, tf)
		}
		if df == 1 && tc != tf {
			return fmt.Errorf("views: removing the last %s-document of group %x leaves residual tc %d", w, key, tc-tf)
		}
	}
	return nil
}

// removeUnchecked applies a removal already validated by checkRemove.
func (v *View) removeUnchecked(key string, u DocUpdate) {
	g := v.group[key]
	v.counts[g]--
	v.lens[g] -= u.Len
	for w, tf := range u.TF {
		c, ok := v.col[w]
		if tf <= 0 || !ok {
			continue
		}
		col := &v.cols[c]
		i, _ := col.find(g)
		col.df[i]--
		col.tc[i] -= tf
		if col.df[i] <= 0 {
			col.drop(i)
		}
	}
	if v.counts[g] <= 0 {
		// The emptied group leaves ViewSize, and with it any cells an
		// update that under-reported its words left behind.
		v.counts[g], v.lens[g] = 0, 0
		v.size--
		for c := range v.cols {
			if i, ok := v.cols[c].find(g); ok {
				v.cols[c].drop(i)
			}
		}
	}
}

// patternOf packs the membership bit pattern of the given predicate
// terms over K, in the layout of key.
func (v *View) patternOf(predicates []string) string {
	buf := make([]byte, (len(v.k)+7)/8)
	for _, p := range predicates {
		if pos, ok := v.pos[p]; ok {
			buf[pos/8] |= 1 << (pos % 8)
		}
	}
	return string(buf)
}

// Apply folds one appended document into every view of the catalog.
func (c *Catalog) Apply(u DocUpdate) {
	for _, v := range c.views {
		v.Apply(u)
	}
}

// Remove folds one deleted document out of every view of the catalog.
// All views are validated before any is mutated, so a mismatched update
// leaves the whole catalog untouched — no view ends up half a removal
// ahead of its siblings.
func (c *Catalog) Remove(u DocUpdate) error {
	keys := make([]string, len(c.views))
	for i, v := range c.views {
		keys[i] = v.patternOf(u.Predicates)
		if err := v.checkRemove(keys[i], u); err != nil {
			return err
		}
	}
	for i, v := range c.views {
		v.removeUnchecked(keys[i], u)
	}
	return nil
}
