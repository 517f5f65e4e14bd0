package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/store"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the enclosing span (0 at a request's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the traced run's spans in memory until the end of the
// run. Only the traced run creates one; the untraced run installs no
// wrapper at all.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

// spanRef is the open span a context carries.
type spanRef struct{ id, req uint64 }

// open is a started span; end records it.
type open struct {
	r *recorder
	s span
}

// start opens a span under the one ctx carries, or a new request when
// ctx carries none.
func (r *recorder) start(ctx context.Context, name string) (context.Context, open) {
	id := r.ids.Add(1)
	s := span{ID: id, Req: id, Name: name, Start: int64(time.Since(r.epoch))}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Parent, s.Req = ref.id, ref.req
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, req: s.Req}), open{r, s}
}

// record adds a span that was timed elsewhere, under the one ctx
// carries.
func (r *recorder) record(ctx context.Context, name string, start time.Time, d time.Duration) {
	_, o := r.start(ctx, name)
	o.s.Start = int64(start.Sub(r.epoch))
	o.s.End = o.s.Start + int64(d)
	r.mu.Lock()
	r.spans = append(r.spans, o.s)
	r.mu.Unlock()
}

func (o open) end() {
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// writeSpans appends spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore wraps a store's public read calls in spans. It forwards
// every optional interface the callers in the serving path probe
// (ContextLinkStore, CacheResetter, Pacer, Sized), so wrapping changes
// no code path.
type tracedStore struct {
	inner    store.LinkStore
	innerCtx store.ContextLinkStore
	rec      *recorder
	name     string
}

var (
	_ store.ContextLinkStore = (*tracedStore)(nil)
	_ store.CacheResetter    = (*tracedStore)(nil)
	_ store.Pacer            = (*tracedStore)(nil)
	_ store.Sized            = (*tracedStore)(nil)
)

func traceStore(rec *recorder, name string, s store.LinkStore) *tracedStore {
	cs, ok := s.(store.ContextLinkStore)
	if !ok {
		panic("perfbench: traced store " + name + " lacks the context read path")
	}
	return &tracedStore{inner: s, innerCtx: cs, rec: rec, name: name}
}

func (t *tracedStore) Name() string  { return t.inner.Name() }
func (t *tracedStore) NumPages() int { return t.inner.NumPages() }

func (t *tracedStore) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	_, sp := t.rec.start(context.Background(), t.name)
	defer sp.end()
	return t.inner.Out(p, buf)
}

func (t *tracedStore) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	_, sp := t.rec.start(context.Background(), t.name)
	defer sp.end()
	return t.inner.OutFiltered(p, f, buf)
}

func (t *tracedStore) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	ctx, sp := t.rec.start(ctx, t.name)
	defer sp.end()
	return t.innerCtx.OutFilteredCtx(ctx, p, f, buf)
}

func (t *tracedStore) Stats() store.AccessStats { return t.inner.Stats() }
func (t *tracedStore) ResetStats()              { t.inner.ResetStats() }
func (t *tracedStore) Close() error             { return t.inner.Close() }

func (t *tracedStore) ResetCache(budget int64) {
	if c, ok := t.inner.(store.CacheResetter); ok {
		c.ResetCache(budget)
	}
}

func (t *tracedStore) SetPace(scale float64) {
	if p, ok := t.inner.(store.Pacer); ok {
		p.SetPace(scale)
	}
}

func (t *tracedStore) SizeBytes() int64 {
	if s, ok := t.inner.(store.Sized); ok {
		return s.SizeBytes()
	}
	return 0
}

// traceHandler opens a request span named by the request path around
// an HTTP handler, so spans opened below it share its request ID.
func traceHandler(rec *recorder, prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := rec.start(r.Context(), prefix+r.URL.Path)
		defer sp.end()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// traceTransport records each router fan-out leg from the request until
// its body is closed, under the router request span its context
// carries.
type traceTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, sp := t.rec.start(req.Context(), "router.leg")
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type legBody struct {
	io.ReadCloser
	sp   open
	once sync.Once
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// shardEngineTimer times the query engine inside a shard's /query
// handler, which the program's query_latency histograms do not cover
// for partial queries. The handler traces a request that carries a
// sampled trace header (as the router sends for its own sampled
// requests) and finishes that trace right after the engine call
// returns, before encoding the rows; so the trace's length minus the
// admission wait recorded in it is the engine's time. Requests without
// the header get one here, and the trace-ID response header is taken
// off again before the router can see it, so the router stitches
// nothing it would not otherwise. Traced run only.
func shardEngineTimer(rec *recorder, tr *trace.Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			h.ServeHTTP(w, r)
			return
		}
		injected := r.Header.Get(trace.HeaderTrace) == ""
		if injected {
			r.Header.Set(trace.HeaderTrace, trace.FormatHeader(1, true))
		}
		ew := &engineWriter{ResponseWriter: w}
		ew.onHeaders = func() {
			id, err := strconv.ParseUint(w.Header().Get(trace.HeaderTraceID), 10, 64)
			if injected {
				w.Header().Del(trace.HeaderTraceID)
			}
			if t := tr.Get(id); err == nil && t != nil {
				d := t.Total()
				for _, c := range t.JSON().Root.Children {
					if c.Name == "serve.admission" {
						d -= time.Duration(c.DurNs)
					}
				}
				rec.record(r.Context(), "shard.engine", t.Start, d)
			}
		}
		h.ServeHTTP(ew, r)
		ew.done()
	})
}

// engineWriter calls onHeaders once, before the response's first
// byte, when the handler has set its headers.
type engineWriter struct {
	http.ResponseWriter
	onHeaders func()
	fired     bool
}

func (w *engineWriter) done() {
	if !w.fired {
		w.fired = true
		w.onHeaders()
	}
}

func (w *engineWriter) WriteHeader(code int) {
	w.done()
	w.ResponseWriter.WriteHeader(code)
}

func (w *engineWriter) Write(b []byte) (int, error) {
	w.done()
	return w.ResponseWriter.Write(b)
}
