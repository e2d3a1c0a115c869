package views

import (
	"bytes"
	"encoding/gob"
	"io"
	"slices"
	"strings"
	"testing"

	"csrank/internal/index"
	"csrank/internal/widetable"
)

// encodeFlatCatalog gob-encodes a format 2 payload as written by
// encodeFlat, without the snapshot frame.
func encodeFlatCatalog(t testing.TB, p flatCatalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeFlatRejectsMalformed corrupts one field of a valid format 2
// view at a time; every corruption must be reported as an error, never
// loaded and never a panic.
func TestDecodeFlatRejectsMalformed(t *testing.T) {
	cat := compatCatalog(t)
	var base flatView // the 4-keyword view: several groups and cells per column
	for _, v := range cat.Views() {
		if len(v.K()) == 4 {
			base = v.flat()
		}
	}
	clone := func() flatView {
		return flatView{
			K: slices.Clone(base.K), Tracked: slices.Clone(base.Tracked),
			Patterns: slices.Clone(base.Patterns), Count: slices.Clone(base.Count), Len: slices.Clone(base.Len),
			ColStart: slices.Clone(base.ColStart), Group: slices.Clone(base.Group),
			DF: slices.Clone(base.DF), TC: slices.Clone(base.TC),
		}
	}
	if _, err := decodeFlat(bytes.NewReader(encodeFlatCatalog(t, flatCatalog{Views: []flatView{clone()}}))); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	if len(base.Count) < 3 || base.ColStart[1] < 2 {
		t.Fatalf("base view too small to corrupt: %d groups, first column %d cells", len(base.Count), base.ColStart[1])
	}
	cases := []struct {
		name    string
		corrupt func(*flatView)
	}{
		{"short lens", func(fv *flatView) { fv.Len = fv.Len[1:] }},
		{"short patterns", func(fv *flatView) { fv.Patterns = fv.Patterns[1:] }},
		{"short df", func(fv *flatView) { fv.DF = fv.DF[1:] }},
		{"short tc", func(fv *flatView) { fv.TC = fv.TC[1:] }},
		{"missing column offset", func(fv *flatView) { fv.ColStart = fv.ColStart[1:] }},
		{"offsets not from zero", func(fv *flatView) { fv.ColStart[0] = 1 }},
		{"offsets past the cells", func(fv *flatView) { fv.ColStart[len(fv.ColStart)-1]++ }},
		{"offset beyond the cells", func(fv *flatView) { fv.ColStart[1] = int64(len(fv.Group) + 5) }},
		{"decreasing offsets", func(fv *flatView) { fv.ColStart[1] = -1 }},
		{"group id out of range", func(fv *flatView) { fv.Group[0] = int32(len(fv.Count)) }},
		{"negative group id", func(fv *flatView) { fv.Group[0] = -1 }},
		{"unsorted groups", func(fv *flatView) { fv.Group[0], fv.Group[1] = fv.Group[1], fv.Group[0] }},
		{"duplicate group", func(fv *flatView) { fv.Group[1] = fv.Group[0] }},
		{"pattern bit beyond K", func(fv *flatView) { fv.Patterns[0] |= 1 << len(fv.K) }},
		{"duplicate pattern", func(fv *flatView) { fv.Patterns[1] = fv.Patterns[0] }},
		{"negative count", func(fv *flatView) { fv.Count[0] = -1 }},
		{"empty group", func(fv *flatView) { fv.Count[0] = 0 }},
		{"negative len", func(fv *flatView) { fv.Len[0] = -3 }},
		{"negative df", func(fv *flatView) { fv.DF[0] = -1 }},
		{"negative tc", func(fv *flatView) { fv.TC[0] = -1 }},
		{"empty cell", func(fv *flatView) { fv.DF[0] = 0 }},
		{"df above count", func(fv *flatView) { fv.DF[0] = fv.Count[fv.Group[0]] + 1 }},
		{"unsorted K", func(fv *flatView) { fv.K[0], fv.K[1] = fv.K[1], fv.K[0] }},
		{"unsorted tracked", func(fv *flatView) { fv.Tracked[0], fv.Tracked[1] = fv.Tracked[1], fv.Tracked[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fv := clone()
			tc.corrupt(&fv)
			data := encodeFlatCatalog(t, flatCatalog{Views: []flatView{fv}})
			if c, err := decodeFlat(bytes.NewReader(data)); err == nil {
				t.Fatalf("corrupt view loaded: %v", c.Views())
			} else if !strings.HasPrefix(err.Error(), "views: decode") {
				t.Fatalf("error %q does not name the decoder", err)
			}
		})
	}
}

// FuzzCatalogReadSnapshot feeds arbitrary bytes to the catalog readers:
// ReadSnapshot (framed format 2 and 1, raw legacy gob) and the unframed
// format 2 decoder. Every input must either fail to load or yield a
// catalog that answers, fingerprints, verifies and is maintained without
// panicking, and that survives a format 2 round trip unchanged.
func FuzzCatalogReadSnapshot(f *testing.F) {
	ix, _ := buildMaintIndex(f, 47, 60)
	words := []string{"w0", "w1"}
	tbl := widetable.FromIndex(ix, words)
	v1, err := Materialize(tbl, []string{"m0", "m1", "m2"}, words)
	if err != nil {
		f.Fatal(err)
	}
	v2, err := Materialize(tbl, []string{"m2", "m3"}, words[:1])
	if err != nil {
		f.Fatal(err)
	}
	cat := NewCatalog([]*View{v1, v2}, 5, 100)
	var framed, flatRaw, legacy bytes.Buffer
	if err := cat.WriteSnapshot(&framed); err != nil {
		f.Fatal(err)
	}
	if err := cat.encodeFlat(&flatRaw); err != nil {
		f.Fatal(err)
	}
	if err := cat.Encode(&legacy); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(flatRaw.Bytes())
	f.Add(legacy.Bytes())
	f.Add(mustRead(f, "testdata/catalog-v1.snap"))
	f.Add(mustRead(f, "testdata/catalog-legacy.gob"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, read := range []func(io.Reader) (*Catalog, error){ReadSnapshot, decodeFlat} {
			c, err := read(bytes.NewReader(data))
			if err != nil {
				continue
			}
			exerciseCatalog(t, c, ix)
		}
	})
}

// exerciseCatalog drives every read and maintenance path of a decoded
// catalog and checks the invariants that hold for any valid one.
func exerciseCatalog(t *testing.T, c *Catalog, ix *index.Index) {
	fp := c.Fingerprint()
	if _, err := c.Verify(ix, VerifyOptions{MaxDrift: 8}); err != nil && !strings.Contains(err.Error(), "unknown keyword column") {
		t.Fatalf("verify: %v", err)
	}
	for _, v := range c.Views() {
		words := append(v.TrackedWords(), "absent")
		k := v.K()
		for _, p := range [][]string{nil, k[:min(1, len(k))], k} {
			a, err := v.Answer(p, append(words, words...), nil)
			if err != nil {
				t.Fatalf("answer %v: %v", p, err)
			}
			if a.Count < 0 || a.Len < 0 {
				t.Fatalf("answer %v: negative aggregates %+v", p, a)
			}
			c.Match(p)
		}
		_ = v.Bytes()
	}
	var buf bytes.Buffer
	if err := c.encodeFlat(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeFlat(&buf)
	if err != nil {
		t.Fatalf("format 2 round trip of a loaded catalog: %v", err)
	}
	if back.Fingerprint() != fp {
		t.Fatal("format 2 round trip changed the fingerprint")
	}
	u := DocUpdate{Predicates: []string{"m0", "m2"}, Len: 4, TF: map[string]int64{"w0": 2}}
	c.Apply(u)
	// Remove may refuse only where Apply overflowed an aggregate.
	if err := c.Remove(u); err == nil && c.Fingerprint() != fp {
		t.Fatal("apply then remove changed the fingerprint")
	}
}
