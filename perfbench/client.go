package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/serve"
)

// outcome is one completed client operation, kept for the checks that
// run after the timed phase.
type outcome struct {
	op     op
	lat    time.Duration
	err    error
	nbrs   serve.OutResponse
	rows   serve.QueryResponse
	lo, hi int // live /out: batches acknowledged before the read, sent after it
}

// client issues operations closed-loop against one base URL.
type client struct {
	base string
	hc   *http.Client
	// bodies are the pre-encoded update batches (live-churn only).
	bodies [][]byte
	// sent and acked count update batches started and acknowledged.
	sent, acked atomic.Int64
}

func newClient(base string) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 4
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

func (c *client) post(path string, body []byte) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// do runs one operation and times it.
func (c *client) do(o op) outcome {
	out := outcome{op: o}
	start := time.Now()
	switch o.kind {
	case opOut, opReadBack:
		out.lo = int(c.acked.Load())
		out.err = c.get("/out?page="+strconv.Itoa(int(o.page)), &out.nbrs)
		out.hi = int(c.sent.Load())
	case opQuery:
		out.err = c.get("/query?q="+strconv.Itoa(int(o.q)), &out.rows)
	case opUpdate:
		c.sent.Store(int64(o.batch + 1))
		out.err = c.post("/update", c.bodies[o.batch])
		if out.err == nil {
			c.acked.Store(int64(o.batch + 1))
		}
	}
	out.lat = time.Since(start)
	return out
}

// runClients runs each op list on its own goroutine, closed-loop, and
// returns the outcomes in list order and the wall time of the whole.
// With rounds > 1 the lists advance in lockstep: each is cut into
// rounds equal slices, and every client finishes its slice of a round
// before any client starts the next, so how the clients' operations
// overlap is the same in every run.
func (c *client) runClients(lists [][]op, rounds int) ([]outcome, time.Duration) {
	res := make([][]outcome, len(lists))
	for i, ops := range lists {
		res[i] = make([]outcome, len(ops))
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i, ops := range lists {
			wg.Add(1)
			go func(out []outcome, ops []op, lo, hi int) {
				defer wg.Done()
				for j := lo; j < hi; j++ {
					out[j] = c.do(ops[j])
				}
			}(res[i], ops, r*len(ops)/rounds, (r+1)*len(ops)/rounds)
		}
		wg.Wait()
	}
	wall := time.Since(start)
	var all []outcome
	for _, r := range res {
		all = append(all, r...)
	}
	return all, wall
}
