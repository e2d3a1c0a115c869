package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request returned.
type outcome struct {
	status int
	body   []byte
	err    error
	// lat is the latency: from the due time in the open-loop phase, from
	// the send otherwise.
	lat time.Duration
	// lag is how late the generator sent a request it was idle for (its
	// timer overslept); -1 when the request was sent late because every
	// connection was busy, which lat already counts as queueing.
	lag time.Duration
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// loadgen sends requests over a fixed set of connections, one per client
// and one client per worker.
type loadgen struct {
	base    string
	clients []*http.Client
}

func newLoadgen(base string, conns int) *loadgen {
	d := &loadgen{base: base}
	for i := 0; i < conns; i++ {
		d.clients = append(d.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return d
}

func (d *loadgen) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

func searchURL(base, q string, k int) string {
	return base + "/search?q=" + url.QueryEscape(q) + "&k=" + strconv.Itoa(k)
}

func (d *loadgen) send(c *http.Client, o op, s *stream) (int, []byte, error) {
	var resp *http.Response
	var err error
	if o.write {
		resp, err = c.Post(d.base+"/index", "application/json", bytes.NewReader(s.bodies[o.doc]))
	} else {
		resp, err = c.Get(searchURL(d.base, o.q, topK))
	}
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// spinWindow is how long before a due time an idle worker stops sleeping
// and yields in a loop instead.
const spinWindow = 500 * time.Microsecond

// runOpen sends ops at their due offsets from a common start, each worker
// taking the next due request as soon as it is free, and times every
// request from when it was due.
func (d *loadgen) runOpen(ops []op, s *stream) ([]outcome, time.Duration) {
	outs := make([]outcome, len(ops))
	var next atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				lag := time.Duration(-1)
				if wait := time.Until(due); wait > 0 {
					// Timer wake-ups run late on a busy machine; sleep to just
					// short of the due time and yield until it arrives.
					if wait > spinWindow {
						time.Sleep(wait - spinWindow)
					}
					for time.Now().Before(due) {
						runtime.Gosched()
					}
					lag = time.Since(due)
				}
				status, body, err := d.send(c, ops[i], s)
				outs[i] = outcome{status: status, body: body, err: err, lat: time.Since(due), lag: lag}
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// runClosed sends ops back to back: each worker sends its next request as
// soon as its previous one completes.
func (d *loadgen) runClosed(ops []op, s *stream) ([]outcome, time.Duration) {
	outs := make([]outcome, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				t := time.Now()
				status, body, err := d.send(c, ops[i], s)
				outs[i] = outcome{status: status, body: body, err: err, lat: time.Since(t), lag: -1}
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// get fetches a small JSON endpoint.
func (d *loadgen) get(path string) ([]byte, error) {
	resp, err := d.clients[0].Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, nil
}
