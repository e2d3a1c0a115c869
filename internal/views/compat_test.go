package views

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"csrank/internal/snapshot"
)

// compatFingerprint is the Fingerprint of compatCatalog as computed by
// the per-group map layout that preceded the flat one. The files in
// testdata were written by that layout too: catalog-v1.snap as a format
// 1 framed snapshot, catalog-legacy.gob by SaveFileLegacy.
const compatFingerprint = "000368bf0437ec32"

// compatCatalog builds three views — one over 70 keywords, so patterns
// span two words — from a fixed document list, then removes the last
// document again, emptying its group in the wide view.
func compatCatalog(t *testing.T) *Catalog {
	t.Helper()
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = fmt.Sprintf("k%02d", i)
	}
	vs := []*View{
		newView([]string{"a", "b", "c"}, []string{"w0", "w1", "w2"}),
		newView([]string{"b", "c", "d", "e"}, []string{"w0", "w2"}),
		newView(wide, []string{"w1", "w2"}),
	}
	var docs []DocUpdate
	for i := 0; i < 40; i++ {
		u := DocUpdate{Len: int64(5 + i%7), TF: map[string]int64{}}
		for j, m := range []string{"a", "b", "c", "d", "e"} {
			if (i>>j)&1 == 1 || i%(j+2) == 0 {
				u.Predicates = append(u.Predicates, m)
			}
		}
		for j := 0; j < 70; j += 1 + i%9 {
			u.Predicates = append(u.Predicates, wide[(j*7+i)%70])
		}
		for j, w := range []string{"w0", "w1", "w2"} {
			if tf := int64((i + j) % 4); tf > 0 {
				u.TF[w] = tf
			}
		}
		docs = append(docs, u)
	}
	last := DocUpdate{Predicates: []string{"a", "e", "k69"}, Len: 3, TF: map[string]int64{"w2": 2}}
	for _, u := range append(docs, last) {
		for _, v := range vs {
			v.Apply(u)
		}
	}
	for _, v := range vs {
		if err := v.Remove(last); err != nil {
			t.Fatal(err)
		}
	}
	if wv := vs[2]; wv.Size() != len(wv.counts)-1 {
		t.Fatalf("wide view has %d groups in %d slots, want one emptied slot", wv.Size(), len(wv.counts))
	}
	return NewCatalog(vs, 3, 64)
}

// contextsOver lists every context over k (every subset when |K| ≤ 10,
// else every subset of at most two keywords).
func contextsOver(k []string) [][]string {
	if len(k) <= 10 {
		var out [][]string
		for mask := 0; mask < 1<<len(k); mask++ {
			var p []string
			for i, m := range k {
				if mask&(1<<i) != 0 {
					p = append(p, m)
				}
			}
			out = append(out, p)
		}
		return out
	}
	out := [][]string{nil}
	for i := range k {
		out = append(out, []string{k[i]})
		for j := i + 1; j < len(k); j++ {
			out = append(out, []string{k[i], k[j]})
		}
	}
	return out
}

// TestCatalogFormatCompatibility loads the same catalog from a format 2
// snapshot, a format 1 snapshot and a raw legacy gob file: all three
// must carry the pinned fingerprint and answer every context alike.
func TestCatalogFormatCompatibility(t *testing.T) {
	cat := compatCatalog(t)
	if got := cat.Fingerprint(); got != compatFingerprint {
		t.Fatalf("fingerprint %s, want %s", got, compatFingerprint)
	}
	v2 := filepath.Join(t.TempDir(), "views.gob")
	if err := cat.SaveFile(v2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if v := readVersion(t, raw); v != CatalogFormatVersion {
		t.Fatalf("SaveFile wrote format %d, want %d", v, CatalogFormatVersion)
	}
	if v := readVersion(t, mustRead(t, "testdata/catalog-v1.snap")); v != 1 {
		t.Fatalf("testdata/catalog-v1.snap holds format %d, want 1", v)
	}
	words := []string{"w0", "w1", "w2", "untracked"}
	var ref *Catalog
	for _, path := range []string{v2, "testdata/catalog-v1.snap", "testdata/catalog-legacy.gob"} {
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fp := got.Fingerprint(); fp != compatFingerprint {
			t.Fatalf("%s: fingerprint %s, want %s", path, fp, compatFingerprint)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i, v := range got.Views() {
			rv := ref.Views()[i]
			if !reflect.DeepEqual(v.K(), rv.K()) || v.Size() != rv.Size() {
				t.Fatalf("%s: view %d is %v, want %v", path, i, v, rv)
			}
			for _, p := range contextsOver(v.K()) {
				a, err := v.Answer(p, words, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := rv.Answer(p, words, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: view %d context %v: %+v, format 2 says %+v", path, i, p, a, b)
				}
			}
		}
	}
	// Writing the legacy format back out loses nothing either.
	var legacy bytes.Buffer
	if err := cat.Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if fp := back.Fingerprint(); fp != compatFingerprint {
		t.Fatalf("legacy round trip fingerprint %s, want %s", fp, compatFingerprint)
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readVersion(t *testing.T, framed []byte) uint32 {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(framed))
	if err != nil {
		t.Fatal(err)
	}
	return sr.Header().PayloadVersion
}
