package views

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"csrank/internal/index"
	"csrank/internal/widetable"
)

// Integrity audit: recompute view aggregates from the index — the source
// of truth — and report every group whose stored statistics drifted.
// Incremental maintenance is only trustworthy if a mismatched update can
// be *detected* after the fact; this is the detector the recovery tests
// run after every simulated crash.

// Drift describes one disagreement between a stored group and the same
// group recomputed from the index.
type Drift struct {
	// View is the index of the drifted view in Catalog.Views() order.
	View int
	// Key is the group's packed bit pattern over K.
	Key string
	// Field names the aggregate that disagrees ("count", "len",
	// "df(word)", "tc(word)", or "missing"/"phantom" for whole groups).
	Field string
	// Got is the stored value, Want the recomputed one.
	Got, Want int64
}

func (d Drift) String() string {
	return fmt.Sprintf("view %d group %x: %s = %d, index says %d", d.View, d.Key, d.Field, d.Got, d.Want)
}

// Fingerprint returns a deterministic digest of the catalog's full
// logical state: every group of every view, aggregates included, in
// canonical order. Two catalogs answer every context query identically
// iff their states match, so equal fingerprints across a crash and
// recovery mean query results are bit-identical — this is what the
// kill-point tests compare. The digest is order-insensitive across
// views (recovery re-sorts views by their current size, which drifts as
// documents are removed), and insensitive to gob's randomized map
// iteration, which makes raw snapshot bytes unusable for the purpose.
func (c *Catalog) Fingerprint() string {
	perView := make([]uint64, len(c.views))
	for i, v := range c.views {
		h := fnv.New64a()
		fmt.Fprintf(h, "k=%s\x00tracked=%s\x00", strings.Join(v.k, ","), strings.Join(v.tracked, ","))
		r := v.rows()
		for _, key := range v.liveKeys() {
			g := v.group[key]
			fmt.Fprintf(h, "g=%x c=%d l=%d", key, v.counts[g], v.lens[g])
			for j := r.start[g]; j < r.start[g+1]; j++ {
				fmt.Fprintf(h, " %s=%d/%d", v.tracked[r.word[j]], r.df[j], r.tc[j])
			}
			h.Write([]byte{0})
		}
		perView[i] = h.Sum64()
	}
	sort.Slice(perView, func(a, b int) bool { return perView[a] < perView[b] })
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(c.ContextThreshold))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(c.ViewSizeLimit))
	h.Write(buf[:])
	for _, fp := range perView {
		binary.LittleEndian.PutUint64(buf[:], fp)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// VerifyOptions configures a Verify run.
type VerifyOptions struct {
	// SampleGroups bounds how many groups per view are compared (0 =
	// every group). Sampling is deterministic — an evenly spaced stride
	// over the sorted group keys — so repeated audits cover the same
	// groups and a drifting group is either always or never caught by
	// the same configuration.
	SampleGroups int
	// MaxDrift stops the audit after this many findings (0 = unlimited);
	// one corrupted view can otherwise produce a finding per group.
	MaxDrift int
}

// Verify recomputes each view's sampled groups from the index and
// reports every aggregate that drifted. A clean recovery must produce
// zero drift; any finding means the catalog and the index disagree and
// the catalog should be re-materialized (or restored from a snapshot and
// replayed).
func (c *Catalog) Verify(ix *index.Index, opts VerifyOptions) ([]Drift, error) {
	var drift []Drift
	for vi, v := range c.views {
		tbl := widetable.FromIndex(ix, v.TrackedWords())
		want, err := Materialize(tbl, v.k, v.TrackedWords())
		if err != nil {
			return drift, fmt.Errorf("views: verify view %d: %w", vi, err)
		}
		drift = append(drift, compareViews(vi, v, want, opts)...)
		if opts.MaxDrift > 0 && len(drift) >= opts.MaxDrift {
			return drift[:opts.MaxDrift], nil
		}
	}
	return drift, nil
}

// compareViews diffs the stored view against the recomputed one over a
// deterministic sample of group keys.
func compareViews(vi int, got, want *View, opts VerifyOptions) []Drift {
	sorted := got.liveKeys()
	for _, k := range want.liveKeys() {
		if _, ok := got.live(k); !ok {
			sorted = append(sorted, k)
		}
	}
	sort.Strings(sorted)
	if n := opts.SampleGroups; n > 0 && len(sorted) > n {
		stride := len(sorted) / n
		sample := make([]string, 0, n)
		for i := 0; i < len(sorted) && len(sample) < n; i += stride {
			sample = append(sample, sorted[i])
		}
		sorted = sample
	}

	gr, wr := got.rows(), want.rows()
	var out []Drift
	for _, key := range sorted {
		g, gok := got.live(key)
		w, wok := want.live(key)
		switch {
		case !gok:
			out = append(out, Drift{View: vi, Key: key, Field: "missing", Got: 0, Want: want.counts[w]})
			continue
		case !wok:
			out = append(out, Drift{View: vi, Key: key, Field: "phantom", Got: got.counts[g], Want: 0})
			continue
		}
		if got.counts[g] != want.counts[w] {
			out = append(out, Drift{View: vi, Key: key, Field: "count", Got: got.counts[g], Want: want.counts[w]})
		}
		if got.lens[g] != want.lens[w] {
			out = append(out, Drift{View: vi, Key: key, Field: "len", Got: got.lens[g], Want: want.lens[w]})
		}
		// Both rows are in ascending word order: merge them by word, a
		// word absent from one side reading as zero there.
		i, iEnd := gr.start[g], gr.start[g+1]
		j, jEnd := wr.start[w], wr.start[w+1]
		for i < iEnd || j < jEnd {
			var word string
			var gdf, gtc, wdf, wtc int64
			switch {
			case j == jEnd || (i < iEnd && got.tracked[gr.word[i]] < want.tracked[wr.word[j]]):
				word, gdf, gtc = got.tracked[gr.word[i]], gr.df[i], gr.tc[i]
				i++
			case i == iEnd || want.tracked[wr.word[j]] < got.tracked[gr.word[i]]:
				word, wdf, wtc = want.tracked[wr.word[j]], wr.df[j], wr.tc[j]
				j++
			default:
				word, gdf, gtc, wdf, wtc = got.tracked[gr.word[i]], gr.df[i], gr.tc[i], wr.df[j], wr.tc[j]
				i++
				j++
			}
			if gdf != wdf {
				out = append(out, Drift{View: vi, Key: key, Field: "df(" + word + ")", Got: gdf, Want: wdf})
			}
			if gtc != wtc {
				out = append(out, Drift{View: vi, Key: key, Field: "tc(" + word + ")", Got: gtc, Want: wtc})
			}
		}
	}
	return out
}
