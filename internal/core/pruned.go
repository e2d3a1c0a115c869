package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"csrank/internal/postings"
	"csrank/internal/ranking"
)

// Block-max dynamic pruning: safe top-k scoring that skips documents
// which cannot rank. The exhaustive path materializes the full
// conjunction and scores every member; the pruned path walks the same
// lists with bound-aware cursors and maintains the running top-k
// threshold τ (the k-th best score seen so far). Work is skipped at two
// granularities, both strictly safe:
//
//   - container level: each keyword list carries per-2^16-chunk
//     (MaxTF, MinDocLen) metadata (postings.ChunkBound). Summing every
//     keyword's per-container score ceiling bounds any document the
//     aligned container range can hold; when that sum is < τ the whole
//     range is skipped without touching a posting.
//   - document level: when the driver (shortest) list is a keyword, a
//     staged check runs first — the driver's summand bound at its actual
//     tf plus the other keywords' container ceilings — skipping hopeless
//     candidates before any other cursor is probed. For candidates that
//     survive and match the conjunction, per-term bounds are accumulated
//     at the document's actual term frequencies in descending
//     list-ceiling order (the MaxScore ordering: with conjunctive
//     semantics every list is "essential" for candidate generation, so
//     the essential/non-essential split degenerates to this
//     bound-evaluation order plus the suffix bound below). After each
//     term the remaining terms are bounded by the suffix sum of their
//     container ceilings; once the partial sum plus suffix drops below τ
//     the document is skipped before its score — and its log-heavy
//     per-term math — is computed.
//
// Safety argument (bit-identical top-k): τ is only read from heaps
// holding ≥ k results, so at any moment at least k already-scored
// documents score ≥ τ, hence the final k-th best score ≥ τ. Skipping
// requires UpperBound < τ strictly, and Score ≤ UpperBound
// (ranking.BoundedScorer's contract), so every skipped document scores
// strictly below the final k-th best — it cannot appear in the top k
// even under the DocID tie-break, which only arbitrates equal scores.
// Documents that are scored produce exactly the exhaustive path's
// floats: term frequencies come from the same lists in the same
// canonical order, and the same kernel (ranking.Prepare over the same
// statistics) scores them.
//
// The Score ≤ UpperBound contract holds in exact arithmetic, but the two
// sides are computed by different floating-point expressions (different
// association, different summation order), so the computed bound can
// land a few ulps BELOW the computed score. That matters precisely at
// ties: when a document's score equals τ bit-for-bit (e.g. an identical
// twin in another partition already raised τ to it), a bound one ulp
// under τ would wrongly skip it and break the DocID tie-break. Every
// skip comparison therefore inflates the bound by boundFPMargin times
// the sum of the summands' magnitudes — ~100× the worst-case
// accumulated rounding drift of these expressions (tens of ops, each
// within 2⁻⁵³ relative), yet far below any score gap a differing (tf,
// len) can produce, so pruning power is unaffected.
//
// Ordering constraint: bounds are functions of the CollectionStats the
// query ranks with. Under context-sensitive evaluation that is S_c(D_P),
// so the pruned path runs strictly after the statistics phase — the
// exhaustive path's stats/result-set overlap does not apply (see
// ranking/bounds.go).

// PruningStats counts what dynamic pruning did during one execution.
// All zero when pruning was off or ineligible and Active is false.
type PruningStats struct {
	// Active reports that the pruned scoring path executed (it may still
	// have skipped nothing if the bounds never dropped below τ).
	Active bool
	// ContainersSkipped counts aligned container ranges dismissed
	// wholesale by the summed per-container ceilings.
	ContainersSkipped int64
	// ContainersSkippedUndecoded counts, among the cursors party to those
	// wholesale dismissals, the containers whose on-disk block was never
	// decompressed: the bound came from the mapped block directory alone,
	// so skipping cost zero payload I/O (always 0 on heap indexes, where
	// every container is resident by definition).
	ContainersSkippedUndecoded int64
	// DocsSkipped counts candidate documents dismissed by a
	// document-level bound without being scored. When the driver list is
	// a keyword, its bound is checked before the conjunction probe, so
	// some skipped candidates may lie outside the conjunction entirely.
	DocsSkipped int64
	// BoundChecks counts document-level bound evaluations (each may or
	// may not lead to a skip); the ratio DocsSkipped/BoundChecks is the
	// pruning hit rate.
	BoundChecks int64
}

// add merges a worker's counters (Active is sticky).
func (p *PruningStats) add(o PruningStats) {
	p.Active = p.Active || o.Active
	p.ContainersSkipped += o.ContainersSkipped
	p.ContainersSkippedUndecoded += o.ContainersSkippedUndecoded
	p.DocsSkipped += o.DocsSkipped
	p.BoundChecks += o.BoundChecks
}

// sharedThreshold is the cross-partition top-k threshold: the maximum
// over all partitions' published full-heap roots. Stored as float64
// bits but compared as float64 (raw-bit ordering is wrong for negative
// scores, which language-model scorers produce routinely).
type sharedThreshold struct {
	bits atomic.Uint64
}

func newSharedThreshold() *sharedThreshold {
	s := &sharedThreshold{}
	s.bits.Store(math.Float64bits(math.Inf(-1)))
	return s
}

func (s *sharedThreshold) load() float64 {
	return math.Float64frombits(s.bits.Load())
}

// raise lifts the threshold to v if v is higher; lock-free CAS loop.
func (s *sharedThreshold) raise(v float64) {
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// boundFPMargin scales the magnitude-proportional inflation applied to
// every pruning bound before it is compared against τ (see the package
// comment's safety argument): skip only when bound + boundFPMargin·Σ|summand|
// < τ. Worst-case floating-point drift between the bound and score
// expressions is ~10⁻¹⁴ relative to the summand magnitudes; 10⁻¹² keeps
// two orders of magnitude of headroom.
const boundFPMargin = 1e-12

// memoCap bounds the per-term tf → TermBound memo table: term
// frequencies at or below it hit the table, rarer larger ones compute
// directly. Tables reset at container granularity (MinDocLen changes).
const memoCap = 256

// prunedEligible reports whether the pruned path can serve this query:
// pruning on, a real top-k (k > 0), a scorer whose prepared kernel
// supplies per-term bounds (all five built-ins), and bound metadata on
// every keyword list. Any nil or empty list means an empty conjunction,
// which the exhaustive path already handles in O(1).
func (e *Engine) prunedEligible(kw, preds []*postings.List, k int) bool {
	if !e.pruning || k <= 0 {
		return false
	}
	if _, ok := e.scorer.(ranking.PreparedScorer); !ok {
		return false
	}
	for _, l := range kw {
		if l == nil || l.Len() == 0 || !l.HasBounds() {
			return false
		}
	}
	for _, l := range preds {
		if l == nil || l.Len() == 0 {
			return false
		}
	}
	return true
}

// prunedQuery is the per-query immutable state shared by all pruned
// scoring workers.
type prunedQuery struct {
	// kern scores documents and supplies each keyword's summand ceiling
	// (TermBound); the full bound is the sum of the per-term ceilings
	// (every built-in formula is such a sum).
	kern ranking.Kernel
	// all holds the keyword lists (first nk entries, aligned with
	// a.kwTerms so cursor TFs fill the canonical tf slice) followed by
	// the predicate lists.
	all []*postings.List
	nk  int
	// order lists keyword indices by descending list-level ceiling —
	// the MaxScore evaluation order for the document-level suffix bound.
	order []int
	// seekOrder lists the non-driver cursor indices (into all) by
	// ascending list length, the cheapest probing order; driver is the
	// shortest list's index.
	seekOrder []int
	driver    int
	k         int
}

// kernelTermBound evaluates keyword i's summand ceiling through the
// kernel's int32 TermBound surface. A term frequency beyond int32 cannot
// be represented there, so it disables pruning for the container (+Inf)
// rather than risk an under-estimate.
func kernelTermBound(k ranking.Kernel, i int, maxTF uint32, minLen int32) float64 {
	if maxTF > math.MaxInt32 {
		return math.Inf(1)
	}
	return k.TermBound(i, int32(maxTF), minLen)
}

// newPrunedQuery assembles the shared pruned-query state. Caller has
// verified prunedEligible.
func (e *Engine) newPrunedQuery(a analyzed, kw, preds []*postings.List, cs ranking.CollectionStats, k int) *prunedQuery {
	nk := len(kw)
	pq := &prunedQuery{
		// a.kwTerms is distinct first-occurrence order — the kernel's
		// term positions — and kw is aligned with it.
		kern:  e.scorer.(ranking.PreparedScorer).Prepare(ranking.NewQueryStats(a.kwStream), cs),
		all:   make([]*postings.List, 0, nk+len(preds)),
		nk:    nk,
		order: make([]int, nk),
		k:     k,
	}
	pq.all = append(pq.all, kw...)
	pq.all = append(pq.all, preds...)
	listUB := make([]float64, nk)
	for i := range kw {
		listUB[i] = kernelTermBound(pq.kern, i, kw[i].MaxTF(), kw[i].MinDocLen())
		pq.order[i] = i
	}
	sort.SliceStable(pq.order, func(x, y int) bool {
		return listUB[pq.order[x]] > listUB[pq.order[y]]
	})
	pq.driver = 0
	for i, l := range pq.all {
		if l.Len() < pq.all[pq.driver].Len() {
			pq.driver = i
		}
	}
	for i := range pq.all {
		if i != pq.driver {
			pq.seekOrder = append(pq.seekOrder, i)
		}
	}
	sort.SliceStable(pq.seekOrder, func(x, y int) bool {
		return pq.all[pq.seekOrder[x]].Len() < pq.all[pq.seekOrder[y]].Len()
	})
	return pq
}

// threshold is the current skip threshold: the best of this worker's
// full-heap root and the shared cross-partition threshold; -Inf while
// fewer than k results exist anywhere.
func threshold(top *topK, shared *sharedThreshold) float64 {
	t := math.Inf(-1)
	if top.full() {
		t = top.floor()
	}
	if s := shared.load(); s > t {
		t = s
	}
	return t
}

// prunedWorker is one partition's scoring state.
type prunedWorker struct {
	e       *Engine
	pq      *prunedQuery
	curs    []*postings.BoundCursor
	top     *topK
	shared  *sharedThreshold
	pst     *PruningStats
	matched int

	// Per-container scratch: cUB[i] is keyword i's ceiling over the
	// aligned container range, suffix[j] the sum of cUB over
	// order[j:] with suffixAbs[j] its magnitude counterpart (Σ|cUB|,
	// feeding the FP-drift margin), memo[i] the tf → bound table, eff
	// the range's effective MinDocLen (max over the keyword containers).
	// othersUB/othersAbs bound every keyword except the driver — the
	// staged pre-probe check (see run) uses them when the driver is a
	// keyword list.
	// stagedUB[tf] is the staged check's fully margin-inflated left-hand
	// side for a driver posting with term frequency tf in this container
	// (filled eagerly up to the container's MaxTF, capped at memoCap).
	// mask is its projection at threshold maskTau — bit tf set iff
	// stagedUB[tf] survives — handed to the cursor so runs of hopeless
	// driver postings are dismissed at tf-array scan speed
	// (postings.SkipNonSurvivors); it is rebuilt lazily whenever the
	// cached τ moves (maskTau is NaN-poisoned at container entry).
	cUB       []float64
	suffix    []float64
	suffixAbs []float64
	othersUB  float64
	othersAbs float64
	stagedUB  []float64
	mask      postings.TFMask
	maskTau   float64
	memo      [][]float64
	eff       int32
}

// enterContainer computes the aligned container range's bounds and
// resets the memo tables. Every keyword cursor sits in the container
// based at base. The container's margin-inflated ceiling is
// suffix[0] + boundFPMargin·suffixAbs[0] afterwards.
func (w *prunedWorker) enterContainer() {
	pq := w.pq
	w.eff = math.MinInt32
	for i := 0; i < pq.nk; i++ {
		if b, ok := w.curs[i].ContainerBound(); ok && b.MinDocLen > w.eff {
			w.eff = b.MinDocLen
		}
	}
	for i := 0; i < pq.nk; i++ {
		b, _ := w.curs[i].ContainerBound()
		w.cUB[i] = kernelTermBound(pq.kern, i, b.MaxTF, w.eff)
	}
	w.suffix[pq.nk] = 0
	w.suffixAbs[pq.nk] = 0
	for j := pq.nk - 1; j >= 0; j-- {
		w.suffix[j] = w.suffix[j+1] + w.cUB[pq.order[j]]
		w.suffixAbs[j] = w.suffixAbs[j+1] + math.Abs(w.cUB[pq.order[j]])
	}
	w.othersUB, w.othersAbs = 0, 0
	w.stagedUB = w.stagedUB[:0]
	if pq.driver < pq.nk {
		for i := 0; i < pq.nk; i++ {
			if i != pq.driver {
				w.othersUB += w.cUB[i]
				w.othersAbs += math.Abs(w.cUB[i])
			}
		}
		if b, ok := w.curs[pq.driver].ContainerBound(); ok {
			n := b.MaxTF
			if n > memoCap {
				n = memoCap
			}
			for tf := uint32(0); tf <= n; tf++ {
				tb := kernelTermBound(pq.kern, pq.driver, tf, w.eff)
				w.stagedUB = append(w.stagedUB, tb+w.othersUB+boundFPMargin*(math.Abs(tb)+w.othersAbs))
			}
		}
	}
	w.maskTau = math.NaN()
	for i := range w.memo {
		w.memo[i] = w.memo[i][:0]
	}
}

// rebuildMask projects stagedUB at threshold tau into the tf survivor
// mask. Frequencies beyond stagedUB's range are implicit survivors
// (TFMask treats tf ≥ 256 as set; a container never holds a tf above
// its own MaxTF, which stagedUB covers up to the memo cap).
func (w *prunedWorker) rebuildMask(tau float64) {
	w.mask.Clear()
	for tf, ub := range w.stagedUB {
		if !(ub < tau) {
			w.mask.Set(uint32(tf))
		}
	}
	w.maskTau = tau
}

// termBound returns keyword i's summand ceiling at its actual term
// frequency in the current container, memoized per (container, tf).
func (w *prunedWorker) termBound(i int, tf uint32) float64 {
	if tf > memoCap {
		return kernelTermBound(w.pq.kern, i, tf, w.eff)
	}
	m := w.memo[i]
	for len(m) <= int(tf) {
		m = append(m, math.NaN())
	}
	if v := m[tf]; !math.IsNaN(v) {
		w.memo[i] = m
		return v
	}
	v := kernelTermBound(w.pq.kern, i, tf, w.eff)
	m[tf] = v
	w.memo[i] = m
	return v
}

// run scores the window [lo, hi) of the conjunction (hi exclusive, as
// uint64 so the last window can cover the full docID space). Results
// accumulate into w.top; matched counts the conjunction members
// visited. ctx is polled at container alignment and every
// scoreCheckMask+1 candidate probes.
func (w *prunedWorker) run(ctx context.Context, lo uint32, hi uint64) error {
	pq := w.pq
	for _, c := range w.curs {
		if !c.NextAtLeast(lo) {
			return nil
		}
	}
	driver := w.curs[pq.driver]
	scratch := getScratch(pq.nk)
	defer putScratch(scratch)
	tf := scratch.tf
	probes := 0
	// tau is a locally cached copy of the skip threshold (haveTau: it is
	// above -Inf, i.e. k results exist somewhere). The true threshold
	// only ever rises, and skipping against a stale (lower) value is
	// strictly safe — it can only skip less — so the atomic load and
	// heap peek are paid at container entry, on every heap push, and at
	// the periodic poll, not per candidate. Bound-check counters
	// accumulate in locals for the same reason and flush on return.
	tau := threshold(w.top, w.shared)
	haveTau := !math.IsInf(tau, -1)
	var checks, skips int64
	defer func() {
		w.pst.BoundChecks += checks
		w.pst.DocsSkipped += skips
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Align every cursor into one container range. Seeks can
		// overshoot into later containers, so iterate to a fixed point;
		// positions only move forward, so this terminates.
		var base uint32
		for {
			base = 0
			for _, c := range w.curs {
				if c.Exhausted() {
					return nil
				}
				if b := c.ContainerBase(); b > base {
					base = b
				}
			}
			moved := false
			for _, c := range w.curs {
				if c.ContainerBase() < base {
					if !c.NextAtLeast(base) {
						return nil
					}
					moved = true
				}
			}
			if !moved {
				break
			}
		}
		if uint64(base) >= hi {
			return nil
		}
		rangeEnd := uint64(base) + postings.ContainerSpan
		if rangeEnd > hi {
			rangeEnd = hi
		}

		w.enterContainer()
		tau = threshold(w.top, w.shared)
		haveTau = !math.IsInf(tau, -1)
		if w.suffix[0]+boundFPMargin*w.suffixAbs[0] < tau {
			// No document in this container range can enter the top k:
			// jump every cursor past it. (Documents beyond rangeEnd in a
			// window-truncated container belong to the next partition,
			// which probes them with its own cursors.)
			w.pst.ContainersSkipped++
			alive := true
			for _, c := range w.curs {
				if !c.ContainerResident() {
					// Mapped block dismissed straight off its directory
					// entry — never decompressed.
					w.pst.ContainersSkippedUndecoded++
				}
				if !c.SkipContainer() {
					alive = false
				}
			}
			if !alive {
				return nil
			}
			continue
		}

		// Conjunction scan within [base, rangeEnd). staged: when the
		// driver is itself a keyword list its tf alone (plus the other
		// keywords' container ceilings, folded into stagedUB) bounds the
		// document before any other cursor moves, so runs of hopeless
		// candidates are dismissed by the tf survivor mask at tf-array
		// scan speed — no conjunction probe, no per-posting cursor step.
		// The ContainerBase conjunct is redundant logically (base ≤ DocID
		// always) but decisive physically: when the driver has moved on to
		// a later container whose mapped block is still pending, the base
		// alone proves the range is done — asking DocID would decompress
		// the block this loop exists to avoid touching.
		staged := pq.driver < pq.nk
		for !driver.Exhausted() && uint64(driver.ContainerBase()) < rangeEnd && uint64(driver.DocID()) < rangeEnd {
			probes++
			if probes&scoreCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				tau = threshold(w.top, w.shared)
				haveTau = !math.IsInf(tau, -1)
			}
			if staged && haveTau {
				if tau != w.maskTau {
					w.rebuildMask(tau)
				}
				if n := driver.SkipNonSurvivors(&w.mask); n > 0 {
					checks += int64(n)
					skips += int64(n)
					continue
				}
			}
			d := driver.DocID()
			if driver.Exhausted() {
				// DocID resolution ran off a quarantined tail.
				return nil
			}
			match := true
			for _, i := range pq.seekOrder {
				c := w.curs[i]
				if !c.NextAtLeast(d) {
					return nil
				}
				got := c.DocID()
				if c.Exhausted() {
					return nil
				}
				if got != d {
					if !driver.NextAtLeast(got) {
						return nil
					}
					match = false
					break
				}
			}
			if !match {
				continue
			}
			w.matched++
			// The full ordered bound over actual tfs is strictly tighter
			// than the staged check whenever more than one keyword
			// contributes; for a single keyword the staged check was
			// already exact, so repeating it cannot skip anything new.
			if (pq.nk > 1 || !staged) && haveTau {
				checks++
				acc, accAbs := 0.0, 0.0
				skip := false
				for j, i := range pq.order {
					tb := w.termBound(i, w.curs[i].TF())
					acc += tb
					accAbs += math.Abs(tb)
					if acc+w.suffix[j+1]+boundFPMargin*(accAbs+w.suffixAbs[j+1]) < tau {
						skip = true
						break
					}
				}
				if skip {
					skips++
					driver.Next()
					continue
				}
			}
			for i := 0; i < pq.nk; i++ {
				tf[i] = int64(w.curs[i].TF())
			}
			w.top.push(Result{DocID: d, Score: pq.kern.Score(tf, w.e.docLen(d))})
			if w.top.full() {
				w.shared.raise(w.top.floor())
				tau = threshold(w.top, w.shared)
				haveTau = true
			}
			driver.Next()
		}
		// End-of-window check, metadata first for the same reason as the
		// scan condition above. A pending block whose base is inside the
		// window genuinely might hold in-window documents, so fall through
		// to the outer loop: its container-skip check gets a chance to
		// dismiss the block off its directory bounds before anything asks
		// for a DocID. Only a resident cursor can prove a mid-container
		// window end here.
		if driver.Exhausted() || uint64(driver.ContainerBase()) >= hi {
			return nil
		}
		if driver.ContainerResident() && uint64(driver.DocID()) >= hi {
			return nil
		}
	}
}

// guardedPrunedRange runs one pruned partition behind a panic guard.
func (e *Engine) guardedPrunedRange(ctx context.Context, pq *prunedQuery, lo uint32, hi uint64, top *topK, shared *sharedThreshold, lst *postings.Stats, pst *PruningStats) (matched int, err error) {
	defer recoverToError(&err, "pruned scoring worker")
	w := &prunedWorker{
		e:         e,
		pq:        pq,
		curs:      make([]*postings.BoundCursor, len(pq.all)),
		top:       top,
		shared:    shared,
		pst:       pst,
		cUB:       make([]float64, pq.nk),
		suffix:    make([]float64, pq.nk+1),
		suffixAbs: make([]float64, pq.nk+1),
		stagedUB:  make([]float64, 0, memoCap+1),
		memo:      make([][]float64, pq.nk),
	}
	for i, l := range pq.all {
		w.curs[i] = postings.NewBoundCursor(l, lst)
	}
	err = w.run(ctx, lo, hi)
	return w.matched, err
}

// prunedSearch is the pruned replacement for evaluateResultSet + score:
// it walks the conjunction with bound-aware cursors and returns the top
// k directly, never materializing the result set. st receives the
// pruning counters, the list cost, and ResultSize (which under pruning
// counts only the conjunction members the loop visited — skipped
// containers hide their members by design). On deadline expiry the
// merged partial top-k is returned with context.DeadlineExceeded, like
// score.
func (e *Engine) prunedSearch(ctx context.Context, a analyzed, kw, preds []*postings.List, cs ranking.CollectionStats, k int, st *ExecStats) ([]Result, error) {
	pq := e.newPrunedQuery(a, kw, preds, cs, k)
	st.Pruning.Active = true
	drv := pq.all[pq.driver]
	n := drv.Len()
	chunks := scoreChunks(n, e.workers)
	shared := newSharedThreshold()
	if chunks <= 1 {
		top := newTopK(k)
		var pst PruningStats
		matched, err := e.guardedPrunedRange(ctx, pq, 0, 1<<32, top, shared, &st.Stats, &pst)
		st.ResultSize = matched
		st.Pruning.add(pst)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			top.release()
			return nil, err
		}
		out := top.results()
		top.release()
		return out, err
	}
	// Partition the docID space at driver-list positions so windows
	// carry equal driver work. Window c is [los[c], los[c+1]) with the
	// last extending to the end of the docID space; windows are
	// disjoint, so per-partition heaps merge exactly like the
	// exhaustive path's.
	los := make([]uint32, chunks)
	for c := range los {
		los[c] = drv.At(c * n / chunks).DocID
	}
	tops := make([]*topK, chunks)
	errs := make([]error, chunks)
	stats := make([]postings.Stats, chunks)
	psts := make([]PruningStats, chunks)
	matches := make([]int, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := los[c]
		hi := uint64(1) << 32
		if c+1 < chunks {
			hi = uint64(los[c+1])
		}
		tops[c] = newTopK(k)
		if c == chunks-1 {
			// The calling goroutine scores the last window itself.
			matches[c], errs[c] = e.guardedPrunedRange(ctx, pq, lo, hi, tops[c], shared, &stats[c], &psts[c])
			continue
		}
		wg.Add(1)
		go func(c int, lo uint32, hi uint64) {
			defer wg.Done()
			matches[c], errs[c] = e.guardedPrunedRange(ctx, pq, lo, hi, tops[c], shared, &stats[c], &psts[c])
		}(c, lo, hi)
	}
	wg.Wait()
	for c := 0; c < chunks; c++ {
		st.Stats.Add(stats[c])
		st.Pruning.add(psts[c])
		st.ResultSize += matches[c]
	}
	var deadlineErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) {
			deadlineErr = err
			continue
		}
		for _, t := range tops {
			t.release()
		}
		return nil, err
	}
	final := tops[0]
	for _, t := range tops[1:] {
		final.merge(t)
	}
	out := final.results()
	for _, t := range tops {
		t.release()
	}
	return out, deadlineErr
}
