package postings

import (
	"math/rand"
	"testing"
)

// modelSeekCharge is the §3.2.1 skip-table charge for a seek moving the
// global position from old to pos, computed directly with no cached
// segment state: (segments skipped, entries scanned).
func modelSeekCharge(old, pos, n, m int) (skipped, entries int64) {
	sOld, sMin := old/m, pos/m
	if pos >= n {
		sMin = (n + m - 1) / m
	}
	if sMin > sOld {
		if start := sMin * m; pos > start {
			entries = int64(pos - start)
		}
		return int64(sMin - sOld), entries
	}
	return 0, int64(pos - old)
}

// TestChargeSeekMatchesModel drives cursors through random mixes of
// seeks (short hops inside a segment, long jumps, runs off the end) and
// single steps, over lists with array and bitset chunks and several
// segment sizes, and checks every seek's charge against the model — the
// cached-segment fast path must never change a counter.
func TestChargeSeekMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(20000)
		stride := 1 + rng.Intn(12)
		ids := make([]uint32, 0, n)
		for d := uint32(rng.Intn(50)); len(ids) < n; d += uint32(1 + rng.Intn(stride)) {
			ids = append(ids, d)
		}
		seg := []int{1, 7, 64, 128, 1000}[rng.Intn(5)]
		l := FromDocIDs(ids, seg)
		var st Stats
		c := newCursor(l, &st)
		for !c.exhausted() {
			if rng.Intn(4) == 0 {
				c.next()
				continue
			}
			var target uint32
			switch rng.Intn(3) {
			case 0:
				target = c.docID() + uint32(1+rng.Intn(3*stride))
			case 1:
				target = c.docID() + uint32(rng.Intn(2000*stride))
			default:
				target = ids[len(ids)-1] + uint32(rng.Intn(3)) // last element or past it
			}
			old := c.gpos
			before := st
			c.seek(target)
			wantSkip, wantEntries := 0, int64(0)
			if old != c.gpos {
				s, e := modelSeekCharge(old, c.gpos, l.n, seg)
				wantSkip, wantEntries = int(s), e
			}
			if got := st.SegmentsSkipped - before.SegmentsSkipped; got != int64(wantSkip) {
				t.Fatalf("trial %d seg %d: seek %d→%d skipped %d segments, model %d", trial, seg, old, c.gpos, got, wantSkip)
			}
			if got := st.EntriesScanned - before.EntriesScanned; got != wantEntries {
				t.Fatalf("trial %d seg %d: seek %d→%d scanned %d entries, model %d", trial, seg, old, c.gpos, got, wantEntries)
			}
		}
	}
}
