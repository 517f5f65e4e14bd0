package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"snode/internal/corpusio"
	"snode/internal/delta"
	"snode/internal/iosim"
	pmetrics "snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/router"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/textindex"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// The serving defaults of snserve and snrouter: admission slots =
// GOMAXPROCS, 64 queued per class, 1-in-64 trace sampling.
const (
	maxQueue   = 64
	traceEvery = 64
	traceSlow  = 4
)

// server is the serve child: the program's serving stack for one
// workload, plus the benchmark's control endpoints under /bench/.
type server struct {
	mode  string
	rec   *recorder // nil in the untraced run
	model iosim.Model

	regs     []*pmetrics.Registry    // the program's own registries
	reps     []*snode.Representation // base S-Node stores
	fwdReps  []*snode.Representation // the WG ones among them
	ioStores []store.LinkStore       // stores whose access stats sum to the run's I/O
	overlays []*delta.Overlay        // live: fwd, rev
	comps    []*delta.Compactor      // live
	closers  []func() error          // stores and shard servers, in close order
	shardSrv []*http.Server          // k2: the in-process shard servers
	rt       *router.Router          // k2
	draining atomic.Bool

	mu        sync.Mutex
	start     sample // taken by /bench/mark
	spansPath string
	quit      chan struct{}
	quitOnce  sync.Once
}

// sample is a point-in-time reading of the counters the benchmark
// diffs over the timed phase.
type sample struct {
	cpuNs  int64
	io     iosim.Stats
	baseIO iosim.Stats // the S-Node stores alone, without delta segments
	snap   pmetrics.Snapshot
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("child-serve", flag.ContinueOnError)
	mode := fs.String("mode", modeSingle, "single, k2 or live")
	art := fs.String("art", "", "artifact directory written by the build child")
	budget := fs.Int64("budget", 1<<20, "graph-cache budget per S-Node store, bytes")
	deltaDir := fs.String("delta", "", "live: delta segment directory")
	spans := fs.String("spans", "", "traced run: file the spans are appended to")
	traced := fs.Bool("trace", false, "wrap the layers' public calls in spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := &server{mode: *mode, model: iosim.Model2002(), spansPath: *spans, quit: make(chan struct{})}
	if *traced {
		s.rec = newRecorder()
	}
	var public http.Handler
	var err error
	switch *mode {
	case modeK2:
		public, err = s.openK2(*art, *budget)
	default:
		public, err = s.openSingle(*art, *budget, *deltaDir)
	}
	if err != nil {
		return err
	}
	top := http.NewServeMux()
	top.HandleFunc("/bench/mark", s.handleMark)
	top.HandleFunc("/bench/stats", s.handleStats)
	top.HandleFunc("/bench/quit", s.handleQuit)
	top.Handle("/", public)
	srv, addr, err := listen(top)
	if err != nil {
		return err
	}
	fmt.Printf("READY %s\n", addr)
	<-s.quit
	return s.shutdown(srv)
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return srv, ln.Addr().String(), nil
}

// wrap puts a store behind a span wrapper in the traced run.
func (s *server) wrap(name string, st store.LinkStore) store.LinkStore {
	if s.rec == nil {
		return st
	}
	return traceStore(s.rec, name, st)
}

func (s *server) traceHTTP(prefix string, h http.Handler) http.Handler {
	if s.rec == nil {
		return h
	}
	return traceHandler(s.rec, prefix, h)
}

func (s *server) openReps(dir string, budget int64, reg *pmetrics.Registry) (fwd, rev *snode.Representation, err error) {
	if fwd, err = snode.Open(filepath.Join(dir, fwdDir), budget, s.model); err != nil {
		return nil, nil, err
	}
	if rev, err = snode.Open(filepath.Join(dir, revDir), budget, s.model); err != nil {
		fwd.Close()
		return nil, nil, err
	}
	fwd.RegisterMetrics(reg, "snode_fwd")
	rev.RegisterMetrics(reg, "snode_rev")
	s.reps = append(s.reps, fwd, rev)
	s.fwdReps = append(s.fwdReps, fwd)
	s.closers = append(s.closers, fwd.Close, rev.Close)
	return fwd, rev, nil
}

// openSingle opens the single-node stack the way snserve assembles it,
// with delta overlays and compactors per direction in live mode.
func (s *server) openSingle(art string, budget int64, deltaDir string) (http.Handler, error) {
	meta, err := corpusio.Read(filepath.Join(art, metaFile))
	if err != nil {
		return nil, err
	}
	pages := meta.Corpus.Pages
	pr, err := readPageRank(filepath.Join(art, pageRankFile), len(pages))
	if err != nil {
		return nil, err
	}
	reg := pmetrics.NewRegistry()
	s.regs = append(s.regs, reg)
	fwd, rev, err := s.openReps(art, budget, reg)
	if err != nil {
		return nil, err
	}
	var fs, rs store.LinkStore = fwd, rev
	if s.mode == modeLive {
		mk := func(base store.LinkStore, name string) (*delta.Overlay, error) {
			return delta.NewOverlay(s.wrap("base."+name, base), delta.Config{
				Pages: pages,
				Dir:   filepath.Join(deltaDir, "delta."+name),
				Model: s.model,
			})
		}
		ovF, err := mk(fwd, "fwd")
		if err != nil {
			return nil, err
		}
		ovR, err := mk(rev, "rev")
		if err != nil {
			return nil, err
		}
		s.overlays = []*delta.Overlay{ovF, ovR}
		s.closers = append([]func() error{ovF.Close, ovR.Close}, s.closers...)
		ovF.RegisterMetrics(reg, "delta_fwd")
		ovR.RegisterMetrics(reg, "delta_rev")
		for _, ov := range s.overlays {
			s.comps = append(s.comps, delta.StartCompactor(context.Background(), ov, delta.CompactorConfig{
				OnError: func(err error) { fmt.Fprintf(os.Stderr, "perfbench: compactor: %v\n", err) },
			}))
		}
		fs, rs = ovF, ovR
	}
	s.ioStores = append(s.ioStores, fs, rs)
	r := &repo.Repository{
		Corpus:   meta.Corpus,
		Text:     textindex.Build(pages),
		PageRank: pr,
		Domains:  store.NewDomainRanges(pages),
		Model:    s.model,
		Fwd:      map[string]store.LinkStore{repo.SchemeSNode: s.wrap("store.fwd", fs)},
		Rev:      map[string]store.LinkStore{repo.SchemeSNode: s.wrap("store.rev", rs)},
	}
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		return nil, err
	}
	e.SetMetrics(reg)
	tracer := trace.New(trace.Config{SampleEvery: traceEvery, SlowPerClass: traceSlow})
	e.SetTracer(tracer)
	qs, err := serve.New(serve.Config{Engine: e, MaxQueue: maxQueue, Registry: reg, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	qs.Register(mux)
	mux.Handle("/debug/traces", trace.Handler(tracer))
	if s.mode == modeLive {
		mux.HandleFunc("/update", s.handleUpdate)
	}
	return s.traceHTTP("serve", mux), nil
}

// openK2 starts both shard servers the way `snserve -shard-root` does,
// each on its own loopback listener, and fronts them with the router
// the way snrouter does — all in this one process.
func (s *server) openK2(art string, budget int64) (http.Handler, error) {
	m, err := shard.LoadManifest(art)
	if err != nil {
		return nil, err
	}
	replicas := make([][]string, m.NumShards)
	for id := 0; id < m.NumShards; id++ {
		sh, err := shard.OpenServing(art, id, budget, s.model)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, sh.Close)
		reg := pmetrics.NewRegistry()
		s.regs = append(s.regs, reg)
		for i, st := range []store.LinkStore{sh.NavRepo.Fwd[repo.SchemeSNode], sh.NavRepo.Rev[repo.SchemeSNode]} {
			rep := st.(*snode.Representation)
			rep.RegisterMetrics(reg, []string{"snode_fwd", "snode_rev"}[i])
			s.reps = append(s.reps, rep)
			if i == 0 {
				s.fwdReps = append(s.fwdReps, rep)
			}
			s.ioStores = append(s.ioStores, rep)
		}
		if s.rec != nil {
			// Rebuild the boundary-merged mining stores over traced
			// bases, so boundary time is the merged call minus its base
			// call; OpenServing assembles the same MergedStore.
			e := m.Shards[id]
			domainOf := func(p webgraph.PageID) string { return sh.Repo.Corpus.Pages[p].Domain }
			for _, d := range []struct {
				name, file string
				nav, mine  map[string]store.LinkStore
			}{
				{"fwd", e.BoundaryFwd, sh.NavRepo.Fwd, sh.Repo.Fwd},
				{"rev", e.BoundaryRev, sh.NavRepo.Rev, sh.Repo.Rev},
			} {
				b, err := shard.OpenBoundary(filepath.Join(art, d.file))
				if err != nil {
					return nil, err
				}
				base := d.nav[repo.SchemeSNode]
				d.mine[repo.SchemeSNode] = s.wrap("store."+d.name,
					shard.NewMergedStore(s.wrap("base."+d.name, base), b, sh.Repo.Domains, domainOf))
				d.nav[repo.SchemeSNode] = s.wrap("store."+d.name, base)
			}
		}
		e, err := query.New(sh.Repo, repo.SchemeSNode)
		if err != nil {
			return nil, err
		}
		e.SetOwner(sh.Owns)
		nav, err := query.New(sh.NavRepo, repo.SchemeSNode)
		if err != nil {
			return nil, err
		}
		e.SetMetrics(reg)
		tracer := trace.New(trace.Config{SampleEvery: traceEvery, SlowPerClass: traceSlow})
		e.SetTracer(tracer)
		qs, err := serve.New(serve.Config{
			Engine:    e,
			NavEngine: nav,
			Shard:     &serve.ShardInfo{ID: id, Count: m.NumShards, Version: m.Version},
			MaxQueue:  maxQueue,
			Registry:  reg,
			Tracer:    tracer,
		})
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		qs.Register(mux)
		mux.Handle("/debug/traces", trace.Handler(tracer))
		var h http.Handler = mux
		if s.rec != nil {
			h = shardEngineTimer(s.rec, tracer, mux)
		}
		srv, addr, err := listen(s.traceHTTP("shard", h))
		if err != nil {
			return nil, err
		}
		s.shardSrv = append(s.shardSrv, srv)
		replicas[id] = []string{"http://" + addr}
	}
	bounds, err := shard.LoadFwdBoundaries(art, m)
	if err != nil {
		return nil, err
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	var rt http.RoundTripper = tr
	if s.rec != nil {
		rt = &traceTransport{rec: s.rec, base: tr}
	}
	reg := pmetrics.NewRegistry()
	s.rt, err = router.New(router.Config{
		Manifest:   m,
		Boundaries: bounds,
		Replicas:   replicas,
		Client:     &http.Client{Transport: rt},
		Registry:   reg,
		Tracer:     trace.New(trace.Config{SampleEvery: traceEvery, SlowPerClass: traceSlow}),
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	s.rt.Register(mux)
	return s.traceHTTP("router", mux), nil
}

// handleUpdate is snserve's POST /update: a JSON array of mutations
// applied to the forward overlay and mirrored into the reverse one.
// snserve's handler lives in its main package, so the benchmark
// carries the same steps.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var ops []mutation
	if err := json.NewDecoder(r.Body).Decode(&ops); err != nil {
		http.Error(w, fmt.Sprintf("bad body: %v", err), http.StatusBadRequest)
		return
	}
	fwd := make([]delta.Mutation, 0, len(ops))
	rev := make([]delta.Mutation, 0, len(ops))
	for i, op := range ops {
		var kind delta.Op
		switch op.Op {
		case "add":
			kind = delta.OpAdd
		case "remove":
			kind = delta.OpRemove
		default:
			http.Error(w, fmt.Sprintf("op %d: unknown kind %q", i, op.Op), http.StatusBadRequest)
			return
		}
		fwd = append(fwd, delta.Mutation{Src: op.Src, Dst: op.Dst, Op: kind})
		rev = append(rev, delta.Mutation{Src: op.Dst, Dst: op.Src, Op: kind})
	}
	ctx := r.Context()
	for i, muts := range [][]delta.Mutation{fwd, rev} {
		var sp open
		if s.rec != nil {
			_, sp = s.rec.start(ctx, "delta.apply")
		}
		err := s.overlays[i].Apply(ctx, muts)
		if s.rec != nil {
			sp.end()
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"applied": len(fwd), "delta": s.overlays[0].DeltaStatsNow()})
}

func cpuNow() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reads the process's peak resident set (VmHWM). Not
// getrusage's ru_maxrss: a child started by fork and exec carries the
// parent's resident set at the fork into that figure.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func (s *server) take() (sample, error) {
	var smp sample
	smp.cpuNs = cpuNow()
	add := func(sum *iosim.Stats, st store.LinkStore) {
		io := st.Stats().IO
		sum.Seeks += io.Seeks
		sum.BytesRead += io.BytesRead
		sum.SkippedBytes += io.SkippedBytes
		sum.Reads += io.Reads
	}
	for _, st := range s.ioStores {
		add(&smp.io, st)
	}
	for _, r := range s.reps {
		add(&smp.baseIO, r)
	}
	snaps := make([]pmetrics.Snapshot, len(s.regs))
	for i, reg := range s.regs {
		snaps[i] = reg.Snapshot()
	}
	var err error
	smp.snap, err = pmetrics.MergeAll(snaps...)
	return smp, err
}

func (s *server) handleMark(w http.ResponseWriter, _ *http.Request) {
	smp, err := s.take()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.start = smp
	s.mu.Unlock()
	if s.rec != nil {
		s.rec.take() // warm-up spans fall outside the timed phase
	}
	w.WriteHeader(http.StatusOK)
}

// childStats is the serve child's account of the timed phase. Counts
// are totals; the driver divides them by its completed operations.
type childStats struct {
	CPUNs       int64   `json:"cpu_ns"`
	MaxRSSMB    float64 `json:"max_rss_mb"`
	ModeledNs   int64   `json:"modeled_ns"`
	IOReads     int64   `json:"io_reads"`
	IOSeeks     int64   `json:"io_seeks"`
	IOBytes     int64   `json:"io_bytes"`
	BaseReads   int64   `json:"base_io_reads"`
	BaseSeeks   int64   `json:"base_io_seeks"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Evictions   int64   `json:"cache_evictions"`
	Coalesced   int64   `json:"cache_coalesced"`
	Decoded     int64   `json:"decoded_edges"`
	DecodeNs    int64   `json:"decode_ns"`
	AdmWaitP50  int64   `json:"admission_wait_p50_ns"`
	AdmWaitP99  int64   `json:"admission_wait_p99_ns"`
	AdmShed     int64   `json:"admission_shed"`
	AdmMineNs   int64   `json:"admission_mining_wait_ns"`
	EngineMine  int64   `json:"engine_mining_ns"`
	Applied     int64   `json:"delta_applied_ops"`
	Seals       int64   `json:"delta_seals"`
	Merges      int64   `json:"delta_merges"`
	MergeOut    int64   `json:"delta_merge_bytes_out"`
	SegReads    int64   `json:"delta_segment_reads"`
	Lookups     int64   `json:"delta_lookups"`

	// Traced run only.
	Spans        spanTotals         `json:"spans"`
	DecodeNsEdge map[string]float64 `json:"decode_ns_per_edge,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	end, err := s.take()
	if err == nil {
		var st childStats
		s.mu.Lock()
		start := s.start
		s.mu.Unlock()
		st, err = s.diff(start, end)
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(st)
			return
		}
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func sumCounters(snap pmetrics.Snapshot, prefix, suffix string) int64 {
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

func (s *server) diff(a, b sample) (childStats, error) {
	st := childStats{CPUNs: b.cpuNs - a.cpuNs}
	var err error
	if st.MaxRSSMB, err = peakRSSMB(); err != nil {
		return st, err
	}
	io := iosim.Stats{
		Seeks:        b.io.Seeks - a.io.Seeks,
		BytesRead:    b.io.BytesRead - a.io.BytesRead,
		SkippedBytes: b.io.SkippedBytes - a.io.SkippedBytes,
		Reads:        b.io.Reads - a.io.Reads,
	}
	st.ModeledNs = int64(io.ModeledTime(s.model))
	st.IOReads, st.IOSeeks, st.IOBytes = io.Reads, io.Seeks, io.BytesRead
	st.BaseReads, st.BaseSeeks = b.baseIO.Reads-a.baseIO.Reads, b.baseIO.Seeks-a.baseIO.Seeks
	c := func(prefix, suffix string) int64 {
		return sumCounters(b.snap, prefix, suffix) - sumCounters(a.snap, prefix, suffix)
	}
	st.CacheHits = c("snode_", "_cache_hits")
	st.CacheMisses = c("snode_", "_cache_misses")
	st.Evictions = c("snode_", "_cache_evictions")
	st.Coalesced = c("snode_", "_cache_coalesced")
	st.Decoded = c("snode_", "_decoded_edges")
	st.AdmShed = c("admission_", "_shed")
	st.Applied = c("delta_", "_applied_ops")
	st.Seals = c("delta_", "_seals")
	st.Merges = c("delta_", "_compactions")
	st.MergeOut = c("delta_", "_merge_bytes_out")
	st.SegReads = c("delta_", "_segment_reads")
	st.Lookups = c("delta_", "_lookups_merged") + c("delta_", "_lookups_passthrough")
	hist := func(name string) (pmetrics.HistSnapshot, error) {
		return b.snap.Histograms[name].Sub(a.snap.Histograms[name])
	}
	for name := range b.snap.Histograms {
		h, err := hist(name)
		if err != nil {
			return st, err
		}
		switch {
		case strings.HasPrefix(name, "snode_") && strings.HasSuffix(name, "_decode_seconds"):
			st.DecodeNs += h.Sum
		case strings.HasPrefix(name, "query_latency_q"):
			st.EngineMine += h.Sum
		}
	}
	nav, err := hist("admission_nav_wait_seconds")
	if err != nil {
		return st, err
	}
	mine, err := hist("admission_mining_wait_seconds")
	if err != nil {
		return st, err
	}
	wait, err := nav.Merge(mine)
	if err != nil {
		return st, err
	}
	st.AdmWaitP50, st.AdmWaitP99 = wait.P50(), wait.P99()
	st.AdmMineNs = mine.Sum
	if s.rec != nil {
		spans := s.rec.take()
		if s.spansPath != "" {
			if err := writeSpans(s.spansPath, spans); err != nil {
				return st, err
			}
		}
		st.Spans = aggregate(spans)
		st.DecodeNsEdge = map[string]float64{}
		ns, edges := map[string]int64{}, map[string]int64{}
		for _, r := range s.fwdReps {
			costs, err := r.MeasureDecode(3)
			if err != nil {
				return st, err
			}
			for _, dc := range costs {
				ns[dc.Kind] += dc.Ns
				edges[dc.Kind] += dc.Edges
			}
		}
		for k, n := range ns {
			if edges[k] > 0 {
				st.DecodeNsEdge[k] = float64(n) / float64(edges[k])
			}
		}
	}
	return st, nil
}

// spanTotals sums the traced run's spans by layer.
type spanTotals struct {
	NavHandlerNs    int64 `json:"nav_handler_ns"`
	NavStoreNs      int64 `json:"nav_store_ns"`
	MiningHandlerNs int64 `json:"mining_handler_ns"`
	MiningStoreNs   int64 `json:"mining_store_ns"`
	ShardEngineNs   int64 `json:"shard_engine_ns"` // k2: engine time inside the shards' /query handlers
	ShardEngines    int64 `json:"shard_engines"`
	StoreCalls      int64 `json:"store_calls"`
	StoreNs         int64 `json:"store_ns"`
	WrapperSelfNs   int64 `json:"wrapper_self_ns"` // merged or overlay call minus its base call
	ApplyNs         int64 `json:"apply_ns"`
	ApplyCalls      int64 `json:"apply_calls"`
	RouterSelfNs    int64 `json:"router_self_ns"`
	RouterRequests  int64 `json:"router_requests"`
	Legs            int64 `json:"legs"`
	Total           int   `json:"spans"`
}

// aggregate attributes spans to layers. A request's root span names its
// class; a store span's self time is its duration minus its base child.
func aggregate(spans []span) spanTotals {
	t := spanTotals{Total: len(spans)}
	root := map[uint64]string{}
	childNs := map[uint64]int64{}
	maxLeg := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			root[s.ID] = s.Name
		}
		if strings.HasPrefix(s.Name, "base.") {
			childNs[s.Parent] += s.dur()
		}
		if s.Name == "router.leg" {
			t.Legs++
			if d := s.dur(); d > maxLeg[s.Req] {
				maxLeg[s.Req] = d
			}
		}
	}
	for _, s := range spans {
		switch {
		case s.Parent == 0 && (s.Name == "serve/out" || s.Name == "shard/out"):
			t.NavHandlerNs += s.dur()
		case s.Parent == 0 && (s.Name == "serve/query" || s.Name == "shard/query"):
			t.MiningHandlerNs += s.dur()
		case s.Parent == 0 && strings.HasPrefix(s.Name, "router/"):
			t.RouterRequests++
			t.RouterSelfNs += s.dur() - maxLeg[s.ID]
		case s.Name == "shard.engine":
			t.ShardEngines++
			t.ShardEngineNs += s.dur()
		case s.Name == "delta.apply":
			t.ApplyCalls++
			t.ApplyNs += s.dur()
		case strings.HasPrefix(s.Name, "store."):
			t.StoreCalls++
			t.StoreNs += s.dur()
			if c, ok := childNs[s.ID]; ok {
				t.WrapperSelfNs += s.dur() - c
			}
			switch root[s.Req] {
			case "serve/out", "shard/out":
				t.NavStoreNs += s.dur()
			case "serve/query", "shard/query":
				t.MiningStoreNs += s.dur()
			}
		}
	}
	return t
}

func (s *server) handleQuit(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	s.quitOnce.Do(func() { close(s.quit) })
}

// shutdown drains the way snserve does on SIGTERM: stop accepting,
// finish in-flight requests, stop the compactors, seal the memtables.
func (s *server) shutdown(srv *http.Server) error {
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if s.rt != nil {
		s.rt.Close()
	}
	for _, sh := range s.shardSrv {
		sh.Shutdown(ctx)
	}
	for _, c := range s.comps {
		c.Stop()
	}
	for _, ov := range s.overlays {
		if err := ov.Seal(context.Background()); err != nil {
			return fmt.Errorf("seal: %w", err)
		}
	}
	var first error
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
