package main

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestTracedReplayCountersRepeat replays each workload's stream twice on
// one seed over a small cluster and requires identical exact counters:
// the postings and views cost charges, the statistics-plan mix, the
// single-client result-cache hits, and the write-path events. Every
// decomposed answer must also equal the engine's own.
func TestTracedReplayCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 12,000-document cluster")
	}
	base := t.TempDir()
	if _, err := buildCluster(12000, 2, base); err != nil {
		t.Fatal(err)
	}
	cv, err := loadCorpusView(base)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.close()
	for _, w := range workloads {
		w := w
		w.warmup, w.closed = 100, 0
		if w.zipf {
			w.poolSize = 1000
		}
		if w.live {
			w.compactAt = 10
		}
		t.Run(w.name, func(t *testing.T) {
			st, err := makeStream(cv, w, 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]counters
			for i := range runs {
				dirs := []string{base, base}
				if w.live {
					for j := range dirs {
						dirs[j] = filepath.Join(t.TempDir(), fmt.Sprint(j))
						if err := copyDir(base, dirs[j]); err != nil {
							t.Fatal(err)
						}
					}
				}
				out, err := replay(w, st, dirs)
				if err != nil {
					t.Fatal(err)
				}
				if out.counters.Mismatches != 0 {
					t.Fatalf("decomposed answers differ from the engine's: %v", out.firstMismatches)
				}
				runs[i] = out.counters
			}
			if runs[0] != runs[1] {
				t.Fatalf("counters differ between two replays of one seed:\n%+v\n%+v", runs[0], runs[1])
			}
			c := runs[0]
			if c.Executed == 0 || c.Cost.EntriesScanned == 0 {
				t.Fatalf("replay did no engine work: %+v", c)
			}
			if w.zipf && c.RCacheHits == 0 {
				t.Fatalf("zipf replay never hit the result cache: %+v", c)
			}
			if w.live && (c.Writes == 0 || c.Compactions == 0) {
				t.Fatalf("live replay wrote %d documents in %d compactions", c.Writes, c.Compactions)
			}
		})
	}
}
