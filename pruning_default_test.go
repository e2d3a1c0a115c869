package csrank

import (
	"fmt"
	"strings"
	"testing"
)

// pruningDocs queues a collection where block-max pruning must dismiss
// work for a small k: every document holds "alpha" and has the same
// analyzed length, the first twenty at tf 8 and the rest at tf 1–3, so
// once the top k fills, the low-tf tail is provably outside it.
func pruningDocs(b *Builder) {
	fill := []string{"river", "stone", "cloud", "maple", "harbor", "lantern", "meadow", "copper", "violet", "summit", "garden", "canyon"}
	for i := 0; i < 2000; i++ {
		tf := 1 + i%3
		if i < 20 {
			tf = 8
		}
		words := make([]string, 0, 12)
		for j := 0; j < tf; j++ {
			words = append(words, "alpha")
		}
		for j := 0; len(words) < 12; j++ {
			words = append(words, fill[(i+j)%len(fill)])
		}
		ward := "ward_a"
		if i%2 == 1 {
			ward = "ward_b"
		}
		b.Add(Document{
			Title:      fmt.Sprintf("note %d", i),
			Body:       strings.Join(words, " "),
			Predicates: []string{ward},
		})
	}
}

// TestDefaultPruningServesTopK pins the serving default: BuildOptions{}
// answers an eligible top-k query through the pruned path (work is
// dismissed, and result_size counts only the members visited), while
// DisablePruning scores the whole conjunction. The hits are identical,
// on a single engine and across shard counts.
func TestDefaultPruningServesTopK(t *testing.T) {
	build := func(opts BuildOptions) *Engine {
		b := NewBuilder()
		pruningDocs(b)
		e, err := b.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	exhaustive := build(BuildOptions{DisablePruning: true})
	pruned := build(BuildOptions{})
	sharded := map[int][2]*ShardedEngine{}
	for _, n := range []int{2, 4} {
		var pair [2]*ShardedEngine
		for i, opts := range []BuildOptions{{}, {DisablePruning: true}} {
			b := NewBuilder()
			pruningDocs(b)
			se, err := b.BuildSharded(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			pair[i] = se
		}
		sharded[n] = pair
	}
	sameHits := func(label string, got, want []Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s rank %d: %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}
	for _, q := range []string{"alpha | ward_a", "alpha"} {
		const k = 5
		want, wst, err := exhaustive.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if wst.PrunedDocs != 0 || wst.PrunedContainers != 0 {
			t.Fatalf("%q: DisablePruning engine pruned: %+v", q, wst)
		}
		got, gst, err := pruned.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(fmt.Sprintf("single %q", q), got, want)
		if gst.PrunedDocs+gst.PrunedContainers == 0 {
			t.Fatalf("%q: default options did not prune: %+v", q, gst)
		}
		// result_size counts the members the pruned loop visited. With a
		// keyword driving the walk, members dismissed by their tf alone
		// are never visited.
		if gst.ResultSize > wst.ResultSize || (q == "alpha" && gst.ResultSize >= wst.ResultSize) {
			t.Fatalf("%q: pruned result_size %d, exhaustive %d: want only visited members counted", q, gst.ResultSize, wst.ResultSize)
		}
		for n, pair := range sharded {
			got, gst, err := pair[0].Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(fmt.Sprintf("%d shards default %q", n, q), got, want)
			if gst.PrunedDocs+gst.PrunedContainers == 0 {
				t.Fatalf("%d shards %q: default options did not prune: %+v", n, q, gst)
			}
			got, xst, err := pair[1].Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(fmt.Sprintf("%d shards exhaustive %q", n, q), got, want)
			if xst.PrunedDocs != 0 || xst.PrunedContainers != 0 || xst.ResultSize != wst.ResultSize {
				t.Fatalf("%d shards %q: DisablePruning stats %+v, want no pruning and result_size %d", n, q, xst, wst.ResultSize)
			}
		}
	}
}
