package core

import "sync"

// scoreScratch is a scoring worker's per-range scratch: the term-
// frequency buffer handed to the query's ranking.Kernel. Pooled because
// every query allocates one per scoring partition; nothing in it
// escapes into returned results — the kernel reads it during the Score
// call and Result copies only the docID and score — so recycling is
// invisible to callers.
type scoreScratch struct {
	tf []int64
}

var scratchPool = sync.Pool{New: func() any { return &scoreScratch{} }}

// getScratch checks a scratch out of the pool with tf sized for n
// terms.
func getScratch(n int) *scoreScratch {
	s := scratchPool.Get().(*scoreScratch)
	if cap(s.tf) < n {
		s.tf = make([]int64, n)
	}
	s.tf = s.tf[:n]
	return s
}

func putScratch(s *scoreScratch) {
	scratchPool.Put(s)
}
