package postings

// cursor walks a List during an intersection. Physically it advances
// through the adaptive containers — galloping within array chunks, jumping
// straight to the target word within bitset chunks — but its cost
// reporting reproduces the §3.2.1 skip-pointer model exactly: a seek
// charges one Seek, SegmentsSkipped for every M0-segment wholly below the
// target, and EntriesScanned for the entries of the landing segment that
// precede it. Because the global element position is tracked at all times
// (dense chunks maintain an incremental rank), the reported numbers are
// identical to what the former segment-skip implementation produced.
//
// Over a mapped list the cursor is additionally *lazy*: entering a chunk
// only records its metadata position (the chunk's first element, whose
// global index is exact without the payload) and defers materializing
// the block until the first docID/tf/step actually needs it. A pruned
// scoring loop that dismisses the container via its bound therefore
// skips the block without ever decompressing it, and the cost charges
// are unchanged because they are functions of global positions only.
type cursor struct {
	l  *List
	st *Stats
	// ci is the current chunk; len(chunks) means exhausted. Within the
	// chunk the position is ki (array) or bit+rank (bitset); gpos is the
	// global element index and cur the current docID.
	ci   int
	ki   int
	bit  int
	rank int
	gpos int
	cur  uint32
	// Resident payload views of the current chunk, loaded by resolve.
	// keys/bits mirror the chunk representation; tfs is the chunk-local
	// TF column (nil ⇒ TF = 1).
	keys []uint16
	bits []uint64
	tfs  []uint32
	// pending marks a cursor positioned at the first element of a mapped
	// chunk whose payload has not been materialized. gpos is exact
	// (offsets[ci]); cur/ki/bit/rank are not yet valid.
	pending bool
	// segEnd is the global end (capped at the list length) of the M0
	// segment the last slow-path seek charge landed in; 0 before any.
	// The cursor only moves forward, so a seek that starts and lands
	// below it stays inside that segment (see chargeSeek).
	segEnd int
}

func newCursor(l *List, st *Stats) *cursor {
	c := &cursor{l: l, st: st}
	c.enterChunk(0)
	return c
}

// enterChunk positions the cursor on the first element of chunk ci, or
// marks it exhausted when no chunk remains. Chunks are never empty. For
// mapped chunks the position is recorded lazily: the payload stays on
// disk until resolve.
func (c *cursor) enterChunk(ci int) {
	c.ci = ci
	if ci >= len(c.l.chunks) {
		c.gpos = c.l.n
		c.pending = false
		return
	}
	c.gpos = c.l.offsets[ci]
	if c.l.src != nil {
		c.pending = true
		return
	}
	c.loadViews(ci)
	c.firstInChunk()
}

// loadViews installs the payload views of chunk ci, charging a
// quarantine skip when the chunk's mapped block is blacklisted.
func (c *cursor) loadViews(ci int) {
	var quarantined bool
	c.keys, c.bits, c.tfs, quarantined = c.l.payloadQ(ci)
	if quarantined {
		c.st.addQuarantineSkip()
	}
}

// firstInChunk positions on the chunk's first element (views loaded) and
// reports whether one exists. Heap chunks are never empty; a quarantined
// mapped chunk serves an empty payload and answers false.
func (c *cursor) firstInChunk() bool {
	base := c.l.chunks[c.ci].base
	if c.bits != nil {
		b := bitsFirstFrom(c.bits, 0)
		if b < 0 {
			return false
		}
		c.bit = b
		c.rank = 0
		c.cur = base | uint32(b)
		return true
	}
	if len(c.keys) == 0 {
		return false
	}
	c.ki = 0
	c.cur = base | uint32(c.keys[0])
	return true
}

// resolve materializes a pending chunk and fixes the in-chunk position.
// Quarantined (empty-serving) chunks are walked past rank-safely. When
// every remaining chunk is quarantined the cursor exhausts with cur set
// to MaxUint32 — callers that resolved through docID must re-check
// exhausted() before trusting the value (the kernels in this package and
// core's pruned loop all do).
func (c *cursor) resolve() {
	for {
		c.loadViews(c.ci)
		if c.firstInChunk() {
			c.pending = false
			return
		}
		c.ci++
		if c.ci >= len(c.l.chunks) {
			c.gpos = c.l.n
			c.cur = ^uint32(0)
			c.pending = false
			return
		}
		c.gpos = c.l.offsets[c.ci]
	}
}

func (c *cursor) exhausted() bool { return c.gpos >= c.l.n }

func (c *cursor) docID() uint32 {
	if c.pending {
		c.resolve()
	}
	return c.cur
}

func (c *cursor) tf() uint32 {
	if c.pending {
		c.resolve()
	}
	if c.tfs == nil {
		return 1
	}
	return c.tfs[c.gpos-c.l.offsets[c.ci]]
}

// next advances the cursor by one posting, counting the consumed entry.
func (c *cursor) next() {
	if c.pending {
		c.resolve()
	}
	c.st.addEntries(1)
	c.gpos++
	if c.bits != nil {
		if nb := bitsFirstFrom(c.bits, c.bit+1); nb >= 0 {
			c.bit = nb
			c.rank++
			c.cur = c.l.chunks[c.ci].base | uint32(nb)
			return
		}
	} else if c.ki+1 < len(c.keys) {
		c.ki++
		c.cur = c.l.chunks[c.ci].base | uint32(c.keys[c.ki])
		return
	}
	c.enterChunk(c.ci + 1)
}

// seek advances the cursor to the first posting with DocID ≥ target and
// reports whether such a posting exists. The physical move is a chunk jump
// plus a gallop (array) or word probe (bitset); the charge is the M0
// model's, computed from the before/after global positions. A pending
// cursor whose chunk base already satisfies the target stays pending —
// that is the no-decompression skip path.
func (c *cursor) seek(target uint32) bool {
	c.st.addSeek()
	if c.gpos >= c.l.n {
		return false
	}
	if c.pending {
		if c.l.chunks[c.ci].base >= target {
			// The chunk's first element is ≥ its base ≥ target: already
			// positioned, no payload needed, no movement to charge.
			return true
		}
		if target <= c.l.chunks[c.ci].base|(chunkSpan-1) {
			// Target falls inside this chunk's range: the payload decides.
			c.resolve()
			if c.exhausted() {
				return false
			}
			if c.cur >= target {
				return true
			}
		}
		// Target at or beyond this chunk's end: walking chunk metadata
		// suffices until the landing chunk.
	} else if c.cur >= target {
		return true
	}
	old := c.gpos
	c.advanceTo(target)
	c.chargeSeek(old, c.gpos)
	return c.gpos < c.l.n
}

// advanceTo moves the cursor to the first element ≥ target (target > cur,
// or the cursor is pending with target > its chunk base).
func (c *cursor) advanceTo(target uint32) {
	tb := target &^ uint32(chunkSpan-1)
	ci := c.ci
	if c.l.chunks[ci].base != tb {
		// The target lies beyond this chunk's range. The walk is linear
		// because a cursor only moves forward: across a whole traversal it
		// visits each chunk at most once.
		for ci++; ci < len(c.l.chunks) && c.l.chunks[ci].base < tb; ci++ {
		}
		if ci == len(c.l.chunks) || c.l.chunks[ci].base > tb {
			// No chunk covers target's range: the first element of the next
			// populated range (if any) is the answer.
			c.enterChunk(ci)
			return
		}
		// Fresh chunk covering target's range: search it from the start.
		c.ci = ci
		c.pending = false
		c.loadViews(ci)
		lo := target & (chunkSpan - 1)
		if c.bits != nil {
			nb := bitsFirstFrom(c.bits, int(lo))
			if nb < 0 {
				c.enterChunk(ci + 1)
				return
			}
			c.bit = nb
			c.rank = bitsPopRange(c.bits, 0, nb)
			c.gpos = c.l.offsets[ci] + c.rank
			c.cur = c.l.chunks[ci].base | uint32(nb)
			return
		}
		ki := gallopSearch16(c.keys, 0, uint16(lo))
		if ki == len(c.keys) {
			c.enterChunk(ci + 1)
			return
		}
		c.ki = ki
		c.gpos = c.l.offsets[ci] + ki
		c.cur = c.l.chunks[ci].base | uint32(c.keys[ki])
		return
	}
	// Same chunk: advance within it.
	if c.pending {
		c.resolve()
		if c.exhausted() || c.cur >= target {
			// Resolution may have skipped quarantined chunks: any landing
			// position is ≥ the next chunk's base > target, so it stands.
			return
		}
	}
	lo := target & (chunkSpan - 1)
	if c.bits != nil {
		nb := bitsFirstFrom(c.bits, int(lo))
		if nb < 0 {
			c.enterChunk(ci + 1)
			return
		}
		c.rank += bitsPopRange(c.bits, c.bit, nb)
		c.bit = nb
		c.gpos = c.l.offsets[ci] + c.rank
		c.cur = c.l.chunks[ci].base | uint32(nb)
		return
	}
	ki := gallopSearch16(c.keys, c.ki, uint16(lo))
	if ki == len(c.keys) {
		c.enterChunk(ci + 1)
		return
	}
	c.ki = ki
	c.gpos = c.l.offsets[ci] + ki
	c.cur = c.l.chunks[ci].base | uint32(c.keys[ki])
}

// chargeSeek reports the M0 cost model's charge for a seek that moved the
// global position from old to pos: every segment wholly below the landing
// point is skipped, and the landing segment is scanned up to the landing
// entry — exactly the charge of a skip-table walk. A seek landing inside
// the segment of the previous charge (the common short hop) charges its
// entries without the segment divisions.
func (c *cursor) chargeSeek(old, pos int) {
	if pos < c.segEnd && old < c.segEnd {
		c.st.addEntries(int64(pos - old))
		return
	}
	m := c.l.segSize
	sOld := old / m
	sMin := pos / m
	if pos >= c.l.n {
		// Past the end: every remaining segment was skipped.
		sMin = (c.l.n + m - 1) / m
	} else {
		c.segEnd = min((sMin+1)*m, c.l.n)
	}
	if sMin > sOld {
		c.st.addSkipped(int64(sMin - sOld))
		if start := sMin * m; pos > start {
			c.st.addEntries(int64(pos - start))
		}
		return
	}
	c.st.addEntries(int64(pos - old))
}
