package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"csrank/internal/analysis"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/snapshot"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// --- fixtures ---------------------------------------------------------

var (
	meshTerms = []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	words     = []string{"w0", "w1", "w2"}
)

func buildTestIndex(t *testing.T, seed int64, n int) *index.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	docs := make([]index.Document, n)
	for i := range docs {
		var mesh, content string
		for _, m := range meshTerms {
			if rng.Float64() < 0.35 {
				mesh += m + " "
			}
		}
		for _, w := range words {
			for k := rng.Intn(3); k > 0; k-- {
				content += w + " "
			}
		}
		if content == "" {
			content = "pad"
		}
		docs[i] = index.Document{Fields: map[string]string{"content": content, "mesh": mesh}}
	}
	schema := index.Schema{
		Fields: []index.FieldSpec{
			{Name: "content", Analyzer: analysis.Keyword()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
	ix, err := index.BuildFrom(schema, 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// buildTestCatalog materializes the same two views every time it is
// called with the same seed, so it doubles as its own mirror: one copy
// goes to the manager, an identical one is maintained directly.
func buildTestCatalog(t *testing.T, ix *index.Index) *views.Catalog {
	t.Helper()
	tbl := widetable.FromIndex(ix, words)
	v1, err := views.Materialize(tbl, []string{"m0", "m1", "m2"}, words)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := views.Materialize(tbl, []string{"m2", "m3", "m4", "m5"}, words)
	if err != nil {
		t.Fatal(err)
	}
	return views.NewCatalog([]*views.View{v1, v2}, 10, 1<<20)
}

func randomUpdate(rng *rand.Rand) views.DocUpdate {
	u := views.DocUpdate{Len: int64(rng.Intn(100) + 1), TF: map[string]int64{}}
	for _, m := range meshTerms {
		if rng.Float64() < 0.4 {
			u.Predicates = append(u.Predicates, m)
		}
	}
	for _, w := range words {
		if tf := rng.Intn(4); tf > 0 {
			u.TF[w] = int64(tf)
		}
	}
	return u
}

// randomBatches produces batches whose removes always target previously
// applied documents, so every batch is valid against a catalog that has
// seen the earlier ones.
func randomBatches(rng *rand.Rand, nBatches int) []Batch {
	var live []views.DocUpdate
	batches := make([]Batch, nBatches)
	for i := range batches {
		var b Batch
		for k := rng.Intn(4) + 1; k > 0; k-- {
			if len(live) > 0 && rng.Float64() < 0.3 {
				j := rng.Intn(len(live))
				b = append(b, Update{Op: OpRemove, Doc: live[j]})
				live = append(live[:j], live[j+1:]...)
			} else {
				u := randomUpdate(rng)
				b = append(b, Update{Op: OpApply, Doc: u})
				live = append(live, u)
			}
		}
		batches[i] = b
	}
	return batches
}

func applyDirect(t *testing.T, cat *views.Catalog, batches []Batch) {
	t.Helper()
	for _, b := range batches {
		if err := applyBatch(cat, b); err != nil {
			t.Fatal(err)
		}
	}
}

// --- record encoding --------------------------------------------------

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []Batch{
		{},
		{{Op: OpApply, Doc: views.DocUpdate{Len: 0}}},
		{{Op: OpRemove, Doc: views.DocUpdate{Predicates: []string{"m0"}, Len: 3}}},
	}
	for i := 0; i < 20; i++ {
		var b Batch
		for k := rng.Intn(5); k >= 0; k-- {
			op := OpApply
			if rng.Float64() < 0.5 {
				op = OpRemove
			}
			b = append(b, Update{Op: op, Doc: randomUpdate(rng)})
		}
		cases = append(cases, b)
	}
	for i, b := range cases {
		payload, err := encodeBatch(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := decodeBatch(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(b) {
			t.Fatalf("case %d: %d updates, want %d", i, len(got), len(b))
		}
		for j := range b {
			if got[j].Op != b[j].Op || got[j].Doc.Len != b[j].Doc.Len ||
				!reflect.DeepEqual(got[j].Doc.Predicates, b[j].Doc.Predicates) {
				t.Fatalf("case %d update %d: %+v != %+v", i, j, got[j], b[j])
			}
			for w, tf := range b[j].Doc.TF {
				if got[j].Doc.TF[w] != tf {
					t.Fatalf("case %d update %d: tf(%s)", i, j, w)
				}
			}
		}
		// Deterministic: re-encoding decoded data gives the same bytes.
		again, err := encodeBatch(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(payload) {
			t.Fatalf("case %d: encoding is not deterministic", i)
		}
		// Every payload truncation must error, never panic.
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeBatch(payload[:cut]); err == nil {
				t.Fatalf("case %d: truncation to %d decoded cleanly", i, cut)
			}
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := encodeBatch(Batch{{Op: 9}}); err == nil {
		t.Fatal("unknown op encoded")
	}
	if _, err := encodeBatch(Batch{{Op: OpApply, Doc: views.DocUpdate{Len: -1}}}); err == nil {
		t.Fatal("negative len encoded")
	}
	if _, err := encodeBatch(Batch{{Op: OpApply, Doc: views.DocUpdate{TF: map[string]int64{"w": -2}}}}); err == nil {
		t.Fatal("negative tf encoded")
	}
}

// --- log append / replay ----------------------------------------------

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	rng := rand.New(rand.NewSource(11))
	batches := randomBatches(rng, 8)

	l, err := OpenLog(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Batch
	res, err := Replay(fsx.OS, path, func(b Batch) error { got = append(got, b); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if res.Batches != len(batches) || len(got) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", res.Batches, len(batches))
	}
	for i := range batches {
		w, _ := encodeBatch(batches[i])
		g, _ := encodeBatch(got[i])
		if string(w) != string(g) {
			t.Fatalf("batch %d mutated in flight", i)
		}
	}
}

// TestReplayTruncationAnywhere cuts the log at every byte: replay must
// deliver exactly the complete records before the cut and flag the rest
// as a torn tail — never a hard error, never a panic, never a phantom
// batch.
func TestReplayTruncationAnywhere(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "wal.log")
	rng := rand.New(rand.NewSource(13))
	batches := randomBatches(rng, 5)

	l, err := OpenLog(fsx.OS, full)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int // cumulative record end offsets
	off := 0
	for _, b := range batches {
		payload, _ := encodeBatch(b)
		off += recordHeaderSize + len(payload)
		bounds = append(bounds, off)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != off {
		t.Fatalf("log is %d bytes, expected %d", len(data), off)
	}

	cutPath := filepath.Join(dir, "cut.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantComplete := 0
		for _, b := range bounds {
			if cut >= b {
				wantComplete++
			}
		}
		n := 0
		res, err := Replay(fsx.OS, cutPath, func(Batch) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: hard error: %v", cut, err)
		}
		if n != wantComplete || res.Batches != wantComplete {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, n, wantComplete)
		}
		atBoundary := cut == 0 || (wantComplete > 0 && bounds[wantComplete-1] == cut)
		if res.TornTail == atBoundary {
			t.Fatalf("cut %d: TornTail=%v at boundary=%v", cut, res.TornTail, atBoundary)
		}
		if res.TornTail {
			wantOff := 0
			if wantComplete > 0 {
				wantOff = bounds[wantComplete-1]
			}
			if res.TailOffset != int64(wantOff) || res.TailBytes != int64(cut-wantOff) {
				t.Fatalf("cut %d: tail at %d span %d, want %d span %d",
					cut, res.TailOffset, res.TailBytes, wantOff, cut-wantOff)
			}
		}
	}
}

// TestReplayMidFileCorruption flips one byte in an early record of a
// multi-record log: that cannot be a torn append, so replay must refuse
// with a hard error rather than silently dropping acknowledged batches.
func TestReplayMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	rng := rand.New(rand.NewSource(17))
	batches := randomBatches(rng, 4)
	l, err := OpenLog(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)
	// Corrupt a payload byte of the first record.
	mut := append([]byte(nil), data...)
	mut[recordHeaderSize] ^= 0x10
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(fsx.OS, path, func(Batch) error { return nil }); err == nil {
		t.Fatal("mid-file corruption replayed cleanly")
	}
}

// TestReplayZeroExtendedTail covers the crash mode where the filesystem
// zero-extends the tail page: a run of zeros to end-of-file is a torn
// tail to skip, while zeros followed by other garbage stay a hard error.
func TestReplayZeroExtendedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	rng := rand.New(rand.NewSource(19))
	batches := randomBatches(rng, 3)
	l, err := OpenLog(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)

	zeroTail := append(append([]byte(nil), data...), make([]byte, 512)...)
	if err := os.WriteFile(path, zeroTail, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(fsx.OS, path, func(Batch) error { return nil })
	if err != nil {
		t.Fatalf("zero-extended tail: %v", err)
	}
	if !res.TornTail || res.Batches != len(batches) || res.TailOffset != int64(len(data)) {
		t.Fatalf("unexpected result: %+v", res)
	}

	dirty := append(append([]byte(nil), data...), make([]byte, 512)...)
	dirty[len(dirty)-1] = 0xFF // zeros then garbage: not a zero-extension
	if err := os.WriteFile(path, dirty, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(fsx.OS, path, func(Batch) error { return nil }); err == nil {
		t.Fatal("garbage after zero run replayed cleanly")
	}
}

// --- manager ----------------------------------------------------------

func TestManagerRecoverEqualsDirect(t *testing.T) {
	ix := buildTestIndex(t, 29, 250)
	mirror := buildTestCatalog(t, ix)
	rng := rand.New(rand.NewSource(31))
	batches := randomBatches(rng, 12)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Catalog().Fingerprint()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	applyDirect(t, mirror, batches)
	if mirror.Fingerprint() != live {
		t.Fatal("managed catalog diverged from direct maintenance before recovery")
	}

	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec.Generation != 1 || rec.BatchesReplayed != len(batches) || rec.TornTail {
		t.Fatalf("unexpected recovery: %+v", rec)
	}
	if got := m2.Catalog().Fingerprint(); got != live {
		t.Fatalf("recovered fingerprint %s, want %s", got, live)
	}
	// The recovered catalog also matches the index exactly.
	drift, err := m2.Catalog().Verify(ixAfter(t, ix, batches), views.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = drift // drift against a rebuilt index is checked in crash tests
}

// TestOpenRecoversFormatV1Snapshot recovers a directory whose snapshot
// was written in catalog format 1 (per-group records, the format before
// the flat layout): the base state loads, the log replays over it, and
// the next snapshot roll writes the current format.
func TestOpenRecoversFormatV1Snapshot(t *testing.T) {
	ix := buildTestIndex(t, 53, 200)
	mirror := buildTestCatalog(t, ix)
	batches := randomBatches(rand.New(rand.NewSource(59)), 8)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Catalog().Fingerprint()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Replace generation 1's snapshot by the same base state in format 1.
	var v1 bytes.Buffer
	sw, err := snapshot.NewWriter(&v1, snapshot.KindViews, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildTestCatalog(t, ix).Encode(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, rec, err := Open(dir, Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec.Generation != 1 || rec.BatchesReplayed != len(batches) || len(rec.CorruptSnapshots) != 0 {
		t.Fatalf("unexpected recovery: %+v", rec)
	}
	if got := m2.Catalog().Fingerprint(); got != live {
		t.Fatalf("recovered fingerprint %s, want %s", got, live)
	}
	extra := randomBatches(rand.New(rand.NewSource(61)), 1)[0]
	if err := m2.Apply(extra); err != nil {
		t.Fatal(err)
	}
	applyDirect(t, mirror, append(batches, extra))
	if got := m2.Catalog().Fingerprint(); got != mirror.Fingerprint() {
		t.Fatalf("catalog after recovery and one more batch diverged from direct maintenance")
	}
	if m2.Generation() != 2 {
		t.Fatalf("generation %d after a batch with SnapshotEvery=1, want 2", m2.Generation())
	}
	f, err := os.Open(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := snapshot.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Header().PayloadVersion; v != views.CatalogFormatVersion {
		t.Fatalf("rolled snapshot holds catalog format %d, want %d", v, views.CatalogFormatVersion)
	}
}

// ixAfter is a placeholder hook for drift checks; the recovered catalog
// reflects ix plus the batches, which a rebuilt index would mirror.
func ixAfter(t *testing.T, ix *index.Index, _ []Batch) *index.Index { t.Helper(); return ix }

func TestManagerSnapshotRollsGenerations(t *testing.T) {
	ix := buildTestIndex(t, 37, 150)
	rng := rand.New(rand.NewSource(41))
	batches := randomBatches(rng, 9)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if g := m.Generation(); g != 4 { // 9 batches / snapshot every 3 → gens 2,3,4
		t.Fatalf("generation %d after 9 batches with SnapshotEvery=3, want 4", g)
	}
	live := m.Catalog().Fingerprint()
	m.Close()

	gens, err := listGenerations(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Retention keeps the current and previous generation only.
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Fatalf("generations on disk: %v, want [3 4]", gens)
	}

	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec.Generation != 4 || rec.BatchesReplayed != 0 {
		t.Fatalf("unexpected recovery: %+v", rec)
	}
	if m2.Catalog().Fingerprint() != live {
		t.Fatal("snapshot-rolled catalog did not recover identically")
	}
}

// TestManagerFallsBackToOlderSnapshot corrupts the newest snapshot at
// rest; recovery must skip it, load the previous generation, replay that
// generation's log, and then chain-replay the corrupt generation's log
// on top — every acknowledged batch survives the snapshot's rot.
func TestManagerFallsBackToOlderSnapshot(t *testing.T) {
	ix := buildTestIndex(t, 43, 150)
	rng := rand.New(rand.NewSource(47))
	batches := randomBatches(rng, 6)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:4] {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Snapshot(); err != nil { // gen 2 snapshot holds batches 0-3
		t.Fatal(err)
	}
	for _, b := range batches[4:] {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Catalog().Fingerprint()
	m.Close()

	// Flip a byte deep inside the gen-2 snapshot.
	snap := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 1 {
		t.Fatalf("recovered generation %d, want fallback to 1", rec.Generation)
	}
	if len(rec.CorruptSnapshots) != 1 || rec.CorruptSnapshots[0] != 2 {
		t.Fatalf("corrupt snapshots: %v, want [2]", rec.CorruptSnapshots)
	}
	// Gen 1's log holds batches 0-3 and gen 2's log batches 4-5; the
	// chain replays both, so recovery reaches the full acknowledged state.
	if rec.BatchesReplayed != 6 {
		t.Fatalf("replayed %d batches across the chain, want 6", rec.BatchesReplayed)
	}
	if len(rec.ChainedWALs) != 1 || rec.ChainedWALs[0] != 2 {
		t.Fatalf("chained WALs: %v, want [2]", rec.ChainedWALs)
	}
	if got := m2.Catalog().Fingerprint(); got != live {
		t.Fatal("chained recovery lost acknowledged batches")
	}
	if g := m2.Generation(); g != 2 {
		t.Fatalf("resumed at generation %d, want 2 (end of the chain)", g)
	}
	// The resumed manager keeps working, and a second recovery (gen 2's
	// snapshot is still corrupt) re-chains to the extended state.
	extra := randomBatches(rng, 1)[0]
	if err := m2.Apply(extra); err != nil {
		t.Fatal(err)
	}
	next := m2.Catalog().Fingerprint()
	m2.Close()
	m3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rec3.BatchesReplayed != 7 || len(rec3.ChainedWALs) != 1 {
		t.Fatalf("re-recovery: %+v", rec3)
	}
	if m3.Catalog().Fingerprint() != next {
		t.Fatal("post-chain appends did not recover")
	}
}

// TestChainRefusesTornIntermediateLog damages the final record of a log
// whose successor generation exists on disk: that can never be crash
// residue (appends stop before the next snapshot rolls), so chaining
// past it would apply the next log to the wrong base state. Recovery
// must refuse with a hard error.
func TestChainRefusesTornIntermediateLog(t *testing.T) {
	ix := buildTestIndex(t, 103, 150)
	rng := rand.New(rand.NewSource(107))
	batches := randomBatches(rng, 6)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:4] {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Snapshot(); err != nil { // gen 2
		t.Fatal(err)
	}
	for _, b := range batches[4:] {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	// Corrupt the gen-2 snapshot so recovery must chain from gen 1, and
	// cut the last bytes off gen 1's log so the chain's base is torn.
	snap := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wal1 := filepath.Join(dir, walName(1))
	info, err := os.Stat(wal1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal1, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("chained past a torn intermediate log")
	}
}

// TestOpenRemovesOrphanedNewerWAL plants a log for a generation that has
// no snapshot: its batches have no reconstructable base state, and a
// later snapshot roll reusing the generation must not find it. Open
// removes it and reports the removal.
func TestOpenRemovesOrphanedNewerWAL(t *testing.T) {
	ix := buildTestIndex(t, 109, 150)
	rng := rand.New(rand.NewSource(113))
	batches := randomBatches(rng, 3)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Catalog().Fingerprint()
	m.Close()

	// An orphaned wal-2 holding a committed-looking record.
	stale := filepath.Join(dir, walName(2))
	l, err := OpenLog(fsx.OS, stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(randomBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	l.Close()

	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.StaleWALs) != 1 || rec.StaleWALs[0] != 2 {
		t.Fatalf("stale WALs: %v, want [2]", rec.StaleWALs)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("orphaned wal-2 still on disk")
	}
	if m2.Catalog().Fingerprint() != live {
		t.Fatal("orphaned log leaked into the recovered state")
	}
	// The next snapshot roll reuses generation 2 with an empty log.
	if err := m2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Apply(randomBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	after := m2.Catalog().Fingerprint()
	m2.Close()
	m3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rec3.Generation != 2 || rec3.BatchesReplayed != 1 {
		t.Fatalf("post-roll recovery: %+v", rec3)
	}
	if m3.Catalog().Fingerprint() != after {
		t.Fatal("post-roll recovery diverged")
	}
}

// TestSnapshotRollTruncatesStaleWAL is the reviewer's reuse scenario
// driven end to end: a stale wal-2 with an old committed record sits on
// disk when the manager rolls generation 2. The roll must start the new
// log empty — replaying the stale record on top of the fresh snapshot
// would corrupt the catalog silently.
func TestSnapshotRollTruncatesStaleWAL(t *testing.T) {
	ix := buildTestIndex(t, 127, 150)
	rng := rand.New(rand.NewSource(131))
	batches := randomBatches(rng, 3)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}

	// Plant the stale log the pre-fix recovery path could leave behind.
	stale := filepath.Join(dir, walName(2))
	l, err := OpenLog(fsx.OS, stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(batches[1]); err != nil {
		t.Fatal(err)
	}
	l.Close()

	if err := m.Snapshot(); err != nil { // rolls to generation 2
		t.Fatal(err)
	}
	if err := m.Apply(batches[2]); err != nil {
		t.Fatal(err)
	}
	live := m.Catalog().Fingerprint()
	m.Close()

	mirror := buildTestCatalog(t, ix)
	applyDirect(t, mirror, []Batch{batches[0], batches[2]})
	if mirror.Fingerprint() != live {
		t.Fatal("live state should hold batches 0 and 2 only")
	}
	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec.Generation != 2 || rec.BatchesReplayed != 1 {
		t.Fatalf("recovery replayed the stale record: %+v", rec)
	}
	if m2.Catalog().Fingerprint() != live {
		t.Fatal("stale wal-2 record replayed on top of the fresh snapshot")
	}
}

// TestManagerTornTailRecovery simulates a crash mid-append: the log
// gains half a record, recovery truncates it, and the recovered state
// holds exactly the acknowledged batches.
func TestManagerTornTailRecovery(t *testing.T) {
	ix := buildTestIndex(t, 53, 150)
	rng := rand.New(rand.NewSource(59))
	batches := randomBatches(rng, 5)

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Catalog().Fingerprint()
	m.Close()

	// Append the first half of a genuine record by hand, as a crash
	// mid-write would.
	payload, _ := encodeBatch(randomBatches(rng, 1)[0])
	raw := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(raw[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(raw[4:8], crc32.Checksum(payload, castagnoli))
	copy(raw[recordHeaderSize:], payload)
	torn := raw[:len(raw)/2]
	walPath := filepath.Join(dir, walName(1))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath)

	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || rec.BatchesReplayed != len(batches) {
		t.Fatalf("unexpected recovery: %+v", rec)
	}
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", rec.TruncatedBytes, len(torn))
	}
	if m2.Catalog().Fingerprint() != live {
		t.Fatal("torn-tail recovery lost acknowledged batches")
	}
	after, _ := os.Stat(walPath)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// The truncated log accepts new appends and recovers again.
	extra := randomBatches(rng, 1)
	if err := m2.Apply(extra[0]); err != nil {
		t.Fatal(err)
	}
	next := m2.Catalog().Fingerprint()
	m2.Close()
	m3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if rec3.TornTail || rec3.BatchesReplayed != len(batches)+1 {
		t.Fatalf("re-recovery after truncate: %+v", rec3)
	}
	if m3.Catalog().Fingerprint() != next {
		t.Fatal("post-truncation appends did not recover")
	}
}

// TestAppendRejectsOversizedBatch feeds Append a batch whose payload
// exceeds the record cap Replay enforces: it must be rejected before any
// byte reaches the file — a written-and-acked record with an oversized
// length field would make Replay fail the whole log — and the log must
// remain appendable.
func TestAppendRejectsOversizedBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	rng := rand.New(rand.NewSource(137))
	good := randomBatches(rng, 2)

	l, err := OpenLog(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(good[0]); err != nil {
		t.Fatal(err)
	}
	huge := Batch{{Op: OpApply, Doc: views.DocUpdate{
		Predicates: []string{strings.Repeat("m", maxRecordBytes+1)},
		Len:        1,
	}}}
	err = l.Append(huge)
	if !errors.Is(err, ErrBatchUnloggable) {
		t.Fatalf("oversized append: %v, want ErrBatchUnloggable", err)
	}
	if err := l.Append(good[1]); err != nil {
		t.Fatalf("log unusable after rejected batch: %v", err)
	}
	res, err := Replay(fsx.OS, path, func(Batch) error { return nil })
	if err != nil || res.TornTail || res.Batches != 2 {
		t.Fatalf("replay after rejection: res=%+v err=%v", res, err)
	}
}

// TestManagerRejectsOversizedBatchWithoutPoisoning: an oversized batch
// wrote nothing, so Apply must roll the in-memory fold back and leave
// the manager fully usable — unlike a torn append, nothing on disk is
// suspect.
func TestManagerRejectsOversizedBatchWithoutPoisoning(t *testing.T) {
	ix := buildTestIndex(t, 139, 150)
	rng := rand.New(rand.NewSource(149))
	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Apply(randomBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	before := m.Catalog().Fingerprint()

	huge := Batch{{Op: OpApply, Doc: views.DocUpdate{
		Predicates: []string{strings.Repeat("m", maxRecordBytes+1)},
		Len:        1,
	}}}
	if err := m.Apply(huge); !errors.Is(err, ErrBatchUnloggable) {
		t.Fatalf("oversized apply: %v, want ErrBatchUnloggable", err)
	}
	if m.Catalog().Fingerprint() != before {
		t.Fatal("rejected batch left residue in the catalog")
	}
	if m.Err() != nil {
		t.Fatal("rejected batch poisoned the manager")
	}
	if err := m.Apply(randomBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
}

// TestApplyCommittedBatchSnapshotFailure crashes the automatic snapshot
// roll after the batch's log append already succeeded: Apply must return
// an error wrapping ErrBatchCommitted — the batch is durable and will be
// replayed, so a caller that resubmitted it would double-apply — and
// recovery must indeed surface the batch.
func TestApplyCommittedBatchSnapshotFailure(t *testing.T) {
	ix := buildTestIndex(t, 151, 150)
	rng := rand.New(rand.NewSource(157))
	batches := randomBatches(rng, 2)

	dir := t.TempDir()
	ffs := fsx.NewFaultFS(fsx.OS)
	m, err := Create(dir, buildTestCatalog(t, ix), Options{FS: ffs, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	// Batch 2's append is one write plus one fsync; the third mutating
	// operation is the snapshot roll's temp-file create. Fail there.
	ffs.Arm(3, false)
	err = m.Apply(batches[1])
	if !errors.Is(err, ErrBatchCommitted) {
		t.Fatalf("post-commit snapshot failure: %v, want ErrBatchCommitted", err)
	}
	if m.Err() == nil {
		t.Fatal("manager not poisoned after failed snapshot roll")
	}
	ffs.Reset()

	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec.BatchesReplayed != 2 {
		t.Fatalf("replayed %d batches, want 2 (the 'failed' batch is committed)", rec.BatchesReplayed)
	}
	mirror := buildTestCatalog(t, ix)
	applyDirect(t, mirror, batches)
	if m2.Catalog().Fingerprint() != mirror.Fingerprint() {
		t.Fatal("committed batch lost after snapshot-roll failure")
	}
}

// TestManagerValidationRollback feeds a batch whose final remove is
// bogus: Apply must reject it, log nothing, leave the catalog at the
// pre-batch state, and stay usable.
func TestManagerValidationRollback(t *testing.T) {
	ix := buildTestIndex(t, 61, 150)
	rng := rand.New(rand.NewSource(67))

	dir := t.TempDir()
	m, err := Create(dir, buildTestCatalog(t, ix), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	good := randomBatches(rng, 2)
	for _, b := range good {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Catalog().Fingerprint()

	bad := Batch{
		{Op: OpApply, Doc: randomUpdate(rng)},
		{Op: OpRemove, Doc: views.DocUpdate{Predicates: []string{"m0"}, Len: 1 << 40}}, // absurd len: underflow
	}
	if err := m.Apply(bad); err == nil {
		t.Fatal("invalid batch applied")
	}
	if m.Catalog().Fingerprint() != before {
		t.Fatal("rejected batch left residue in the catalog")
	}
	if m.Err() != nil {
		t.Fatal("validation failure poisoned the manager")
	}
	// Still usable, and the rejected batch is not in the log.
	if err := m.Apply(randomBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	liveFP := m.Catalog().Fingerprint()
	m.Close()
	m2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if rec.BatchesReplayed != 3 {
		t.Fatalf("replayed %d batches, want 3 (rejected batch must not be logged)", rec.BatchesReplayed)
	}
	if m2.Catalog().Fingerprint() != liveFP {
		t.Fatal("recovery diverged after a rejected batch")
	}
}

// Property (satellite d): for any random batch sequence and any
// snapshot cadence, recovery (snapshot + replay) is state-identical to
// maintaining the catalog directly.
func TestSnapshotReplayEquivalenceProperty(t *testing.T) {
	ix := buildTestIndex(t, 71, 200)
	f := func(seed int64, nRaw, everyRaw uint8) bool {
		n := int(nRaw%12) + 1
		every := int(everyRaw % 5) // 0 = no auto snapshots
		rng := rand.New(rand.NewSource(seed))
		batches := randomBatches(rng, n)

		dir := t.TempDir()
		m, err := Create(dir, buildTestCatalog(t, ix), Options{SnapshotEvery: every})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, b := range batches {
			if err := m.Apply(b); err != nil {
				t.Log(err)
				return false
			}
		}
		m.Close()

		mirror := buildTestCatalog(t, ix)
		applyDirect(t, mirror, batches)

		m2, _, err := Open(dir, Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		defer m2.Close()
		return m2.Catalog().Fingerprint() == mirror.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
