package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"csrank"
)

// Phases of a run, in order.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
)

// op is one request of the stream: a search for q, or a write of docs[doc].
type op struct {
	phase int
	// due is the offset from the open-loop phase's start at which the
	// request is due (open-loop phase only).
	due   time.Duration
	write bool
	q     string
	doc   int
}

// stream is a workload's whole request sequence, made from the seed alone
// (given the pinned corpus).
type stream struct {
	ops  []op
	docs []csrank.Document
	// bodies are the docs' POST /index payloads.
	bodies [][]byte
	// pool is the zipf query pool (nil for distinct).
	pool []string
}

func makeStream(cv *corpusView, w workload, seed int64, dur time.Duration) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	nOpen := int(w.readQPS * dur.Seconds())
	s := &stream{}
	var reads func(n int) []string
	if w.zipf {
		var err error
		if s.pool, err = cv.pool(rng, w.poolSize); err != nil {
			return nil, err
		}
		z := newZipf(len(s.pool))
		reads = func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = s.pool[z.draw(rng)]
			}
			return out
		}
	} else {
		// Every request distinct, phases disjoint slices of one pool.
		all, err := cv.pool(rng, w.warmup+nOpen+w.closed)
		if err != nil {
			return nil, err
		}
		reads = func(n int) []string {
			out := all[:n]
			all = all[n:]
			return out
		}
	}
	for _, q := range reads(w.warmup) {
		s.ops = append(s.ops, op{phase: phaseWarm, q: q})
	}
	var open []op
	for i, q := range reads(nOpen) {
		open = append(open, op{phase: phaseOpen, q: q, due: time.Duration(float64(i) / w.readQPS * float64(time.Second))})
	}
	nWrites := int(w.writeQPS * dur.Seconds())
	for i := 0; i < nWrites; i++ {
		d, err := cv.doc(rng, seed, i)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"title": d.Title, "body": d.Body, "predicates": d.Predicates})
		if err != nil {
			return nil, err
		}
		s.docs = append(s.docs, d)
		s.bodies = append(s.bodies, body)
		open = append(open, op{phase: phaseOpen, write: true, doc: i, due: time.Duration(float64(i) / w.writeQPS * float64(time.Second))})
	}
	sort.SliceStable(open, func(i, j int) bool { return open[i].due < open[j].due })
	s.ops = append(s.ops, open...)
	for _, q := range reads(w.closed) {
		s.ops = append(s.ops, op{phase: phaseClosed, q: q})
	}
	return s, nil
}

// phase returns the ops of one phase, in stream order.
func (s *stream) phase(p int) []op {
	var out []op
	for _, o := range s.ops {
		if o.phase == p {
			out = append(out, o)
		}
	}
	return out
}
