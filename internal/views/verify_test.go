package views

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/snapshot"
	"csrank/internal/widetable"
)

func TestVerifyCleanCatalog(t *testing.T) {
	ix, _ := buildMaintIndex(t, 41, 300)
	words := []string{"w0", "w1"}
	tbl := widetable.FromIndex(ix, words)
	v1, _ := Materialize(tbl, []string{"m0", "m1", "m2"}, words)
	v2, _ := Materialize(tbl, []string{"m2", "m3"}, words)
	cat := NewCatalog([]*View{v1, v2}, 10, 1000)

	drift, err := cat.Verify(ix, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 0 {
		t.Fatalf("clean catalog reported drift: %v", drift)
	}
	// Sampling also runs clean.
	drift, err = cat.Verify(ix, VerifyOptions{SampleGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 0 {
		t.Fatalf("sampled verify reported drift: %v", drift)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	ix, _ := buildMaintIndex(t, 42, 300)
	words := []string{"w0", "w1"}
	tbl := widetable.FromIndex(ix, words)
	v, _ := Materialize(tbl, []string{"m0", "m1"}, words)
	cat := NewCatalog([]*View{v}, 10, 1000)

	// Poison one group the way a mismatched un-logged update would.
	v.counts[0] += 3
	if i, ok := v.cols[v.col["w0"]].find(0); ok {
		v.cols[v.col["w0"]].tc[i]--
	}
	drift, err := cat.Verify(ix, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) == 0 {
		t.Fatal("corrupted group not reported")
	}
	found := map[string]bool{}
	for _, d := range drift {
		found[d.Field] = true
		if d.String() == "" {
			t.Fatal("empty drift description")
		}
	}
	if !found["count"] {
		t.Fatalf("count drift not among findings: %v", drift)
	}
	// MaxDrift truncates.
	drift, err = cat.Verify(ix, VerifyOptions{MaxDrift: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 1 {
		t.Fatalf("MaxDrift=1 returned %d findings", len(drift))
	}
}

// TestCatalogFramedPersistence round-trips a catalog through the framed
// snapshot format and checks corruption detection plus legacy raw-gob
// loading.
func TestCatalogFramedPersistence(t *testing.T) {
	ix, _ := buildMaintIndex(t, 43, 200)
	words := []string{"w0"}
	tbl := widetable.FromIndex(ix, words)
	v, _ := Materialize(tbl, []string{"m0", "m1"}, words)
	cat := NewCatalog([]*View{v}, 7, 99)

	dir := t.TempDir()
	path := filepath.Join(dir, "views.gob")
	if err := cat.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot.IsFramed(raw) {
		t.Fatal("SaveFile did not write a framed snapshot")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != cat.Len() || got.ContextThreshold != 7 || got.ViewSizeLimit != 99 {
		t.Fatalf("round trip lost catalog metadata: %+v", got)
	}

	// Bit flips and truncation are detected.
	for off := 0; off < len(raw); off += 11 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x04
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d loaded cleanly", off)
		}
	}
	for cut := 0; cut < len(raw); cut += 13 {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d loaded cleanly", cut)
		}
	}

	// Legacy raw gob (pre-frame files) still loads.
	var legacy bytes.Buffer
	if err := cat.Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	got, err = ReadSnapshot(bytes.NewReader(legacy.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != cat.Len() {
		t.Fatal("legacy stream lost views")
	}
}

// TestDecodeRejectsNegativeAggregates feeds a persisted catalog whose
// aggregates are negative; it must error, not build a poisoned catalog.
func TestDecodeRejectsNegativeAggregates(t *testing.T) {
	cases := []persistentCatalog{
		{Views: []persistentView{{K: []string{"a"}, Groups: []persistentGroup{{Key: "\x01", Count: -2}}}}},
		{Views: []persistentView{{K: []string{"a"}, Groups: []persistentGroup{{Key: "\x01", Count: 1, Len: -5}}}}},
		{Views: []persistentView{{K: []string{"a"}, Tracked: []string{"w"},
			Groups: []persistentGroup{{Key: "\x01", Count: 1, Len: 5, DF: map[string]int64{"w": -1}, TC: map[string]int64{"w": 1}}}}}},
	}
	for i, pc := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&pc); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil {
			t.Fatalf("case %d: negative aggregates decoded cleanly", i)
		}
	}
}
