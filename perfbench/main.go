// Command perfbench is the repository's benchmark. For one workload and
// one seed it generates the corpus and the traffic, ingests and builds
// the corpus the way a real graph is built, serves it through the
// program's HTTP surface (serve, router, delta) in a separate process,
// drives it with closed-loop clients, checks every answer against a
// brute-force reference, and prints one JSON line of metrics:
//
//	perfbench --workload cold-nav --seed 1 --seconds 6 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// traffic with span wrappers around each layer's public calls and
// reports the per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"snode/internal/bench"
	"snode/internal/ingest"
	"snode/internal/iosim"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/webgraph"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "child-build":
		err = buildMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "child-serve":
		err = serveMain(os.Args[2:])
	default:
		err = driverMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func driverMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-nav, hot-k2 or live-churn")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same traffic and mutation log")
	seconds := fs.Int("seconds", 6, "run length; fixes the operation count (about this many seconds on a 2-CPU host)")
	traced := fs.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	printProvenance()
	rep, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, sc: fullScale, dir: dir, self: self})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// printProvenance prints the host the figures come from, through the
// provenance helper every snbench artifact embeds.
func printProvenance() {
	p := bench.NewProvenance()
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("provenance: commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		p.GitCommit, p.GoVersion, p.GoMaxProcs, p.NumCPU, model)
}

// cpuTimes is the host's CPU time counters (/proc/stat, in ticks): all
// of them, and the time the hypervisor ran other guests on this
// machine's virtual CPUs (steal). A timed phase with a large steal
// share measured a slower machine.
type cpuTimes struct{ total, steal int64 }

func readCPUTimes() cpuTimes {
	var c cpuTimes
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v int64
		fmt.Sscan(f, &v)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// since is the steal share of the CPU time between a and c.
func (c cpuTimes) since(a cpuTimes) float64 {
	if c.total <= a.total {
		return 0
	}
	return float64(c.steal-a.steal) / float64(c.total-a.total)
}

type runConfig struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
	sc      scale
	dir     string // work directory, removed afterwards
	self    string // this binary, re-executed for the child processes
	// oneClient replays the traffic from one client in a fixed order,
	// so the counts repeat exactly (the count test uses it).
	oneClient bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child is a started child process.
type child struct {
	cmd  *exec.Cmd
	addr string
}

func (c *child) kill() {
	if c != nil && c.cmd.ProcessState == nil {
		c.cmd.Process.Kill()
		c.cmd.Wait()
	}
}

// startServer launches a serve child and waits for its READY line.
func startServer(cfg runConfig, art, deltaDir string) (*child, error) {
	args := []string{"child-serve", "-mode", cfg.w.mode, "-art", art, "-budget", fmt.Sprint(cfg.w.budget),
		"-delta", deltaDir, "-spans", filepath.Join(cfg.dir, "spans.jsonl"), fmt.Sprintf("-trace=%v", cfg.traced)}
	cmd := exec.Command(cfg.self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the driver
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	ready := make(chan string, 1)
	go func() {
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		ready <- line
		// Drain until exit so the child never blocks on a full pipe.
		io.Copy(io.Discard, br)
	}()
	select {
	case line := <-ready:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
		if !ok {
			c.kill()
			return nil, fmt.Errorf("serve child did not start (%q)", line)
		}
		c.addr = addr
		return c, nil
	case <-time.After(120 * time.Second):
		c.kill()
		return nil, fmt.Errorf("serve child not ready after 120s")
	}
}

// stopServer asks a serve child to drain and waits for it to exit.
func stopServer(c *child, cl *client) error {
	if err := cl.get("/bench/quit", nil); err != nil {
		c.kill()
		return err
	}
	cl.close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("serve child did not exit after drain")
	}
}

// runBuild runs a build child and returns its report.
func runBuild(cfg runConfig, in, art string) (buildResult, error) {
	var res buildResult
	cmd := exec.Command(cfg.self, "child-build", "-mode", cfg.w.mode, "-in", in, "-out", art, fmt.Sprintf("-trace=%v", cfg.traced))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("build child: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("build child output: %w", err)
	}
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileMS is the nearest-rank percentile of latencies, in ms.
func percentileMS(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(int(math.Ceil(float64(len(s))*q))-1, 0)
	return float64(s[i]) / 1e6
}

const setups = 3

// measured is everything a run observed, before the checks.
type measured struct {
	ref    *reference
	log    *mutationLog
	builds []buildResult
	setupS []float64
	artErr error     // the artifact check
	outs   []outcome // timed phase
	back   []outcome // live: read-backs after the restart
	wall   time.Duration
	st     childStats
}

// run executes one benchmark run and evaluates it.
func run(cfg runConfig) (*report, error) {
	m, err := measure(cfg)
	if err != nil {
		return nil, err
	}
	return evaluate(cfg, m), nil
}

// measure generates the inputs, sets up, runs the timed phase and, for
// live-churn, the restart and read-back.
func measure(cfg runConfig) (*measured, error) {
	crawl, err := generateCrawl(cfg.sc.pages)
	if err != nil {
		return nil, err
	}
	exp, err := ingest.Export(crawl.Corpus, filepath.Join(cfg.dir, "input"), ingest.ExportOptions{})
	if err != nil {
		return nil, err
	}
	m := &measured{ref: newReference(crawl.Corpus)}
	rounds := roundsFor(cfg.w, cfg.seconds)
	var bodies [][]byte
	if cfg.w.mode == modeLive {
		if m.log, err = makeMutationLog(cfg.seed, m.ref, rounds*batchesPerRound, cfg.sc); err != nil {
			return nil, err
		}
		for _, b := range m.log.batches {
			body, err := json.Marshal(b)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
	}
	tr := makeTraffic(cfg.w, cfg.seed, rounds, cfg.sc, m.log)
	if cfg.oneClient {
		tr.clients = [][]op{interleave(tr.clients)}
		tr.warm = [][]op{interleave(tr.warm)}
	}

	// Set up several times; the median is setup_s. The last server stays
	// up for the timed phase.
	var srv *child
	var cl *client
	defer func() { srv.kill() }()
	var art, deltaDir string
	for i := 0; i < setups; i++ {
		art = filepath.Join(cfg.dir, fmt.Sprintf("art-%d", i))
		deltaDir = filepath.Join(cfg.dir, fmt.Sprintf("delta-%d", i))
		t0 := time.Now()
		br, err := runBuild(cfg, exp.GraphPath, art)
		if err != nil {
			return nil, err
		}
		if srv, err = startServer(cfg, art, deltaDir); err != nil {
			return nil, err
		}
		cl = newClient("http://" + srv.addr)
		cl.bodies = bodies
		cl.runClients(tr.warm, 1)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: build %d: %.2fs, peak RSS %.1f MB\n", i, br.TotalS, br.PeakRSSMB)
		m.builds = append(m.builds, br)
		if i < setups-1 {
			if err := stopServer(srv, cl); err != nil {
				return nil, err
			}
			srv = nil
		}
	}
	m.artErr = checkArtifact(cfg.w.mode, art, m.ref)

	if err := cl.get("/bench/mark", nil); err != nil {
		return nil, err
	}
	steal0 := readCPUTimes()
	m.outs, m.wall = cl.runClients(tr.clients, tr.rounds)
	fmt.Fprintf(os.Stderr, "perfbench: %s: setups %.2fs %.2fs %.2fs, timed phase %d ops in %.2fs, host steal %.1f%%\n",
		cfg.w.name, m.setupS[0], m.setupS[1], m.setupS[2], len(m.outs), m.wall.Seconds(), 100*readCPUTimes().since(steal0))
	if err := cl.get("/bench/stats", &m.st); err != nil {
		return nil, err
	}
	if cfg.w.mode == modeLive {
		// Graceful drain (memtables sealed), then a restart over the same
		// artifact and delta directories, then a read-back of every
		// mutated page against the replay of the whole log.
		if err := stopServer(srv, cl); err != nil {
			return nil, err
		}
		if srv, err = startServer(cfg, art, deltaDir); err != nil {
			return nil, err
		}
		cl = newClient("http://" + srv.addr)
		var ops []op
		for _, p := range m.log.pages {
			ops = append(ops, op{kind: opReadBack, page: p})
		}
		m.back, _ = cl.runClients([][]op{ops}, 1)
	}
	if err := stopServer(srv, cl); err != nil {
		return nil, err
	}
	srv = nil
	return m, nil
}

// interleave merges per-client op lists into one, taking one op from
// each list in turn: the single-client order the count test replays.
func interleave(lists [][]op) []op {
	var out []op
	for i := 0; ; i++ {
		done := true
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				done = false
			}
		}
		if done {
			return out
		}
	}
}

// evaluate checks every answer and computes the metrics.
func evaluate(cfg runConfig, m *measured) *report {
	ref, log := m.ref, m.log
	rep := &report{Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		if rep.Failed < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
		rep.Failed++
	}
	// The built WG artifact, decoded whole, against the input graph.
	rep.Attempted++
	if m.artErr != nil {
		fail("artifact: %v", m.artErr)
	}
	var navLat, mineLat, updLat []time.Duration
	completed := 0
	for _, o := range m.outs {
		rep.Attempted++
		if o.err != nil {
			fail("%v", o.err)
			continue
		}
		completed++
		switch o.op.kind {
		case opOut:
			navLat = append(navLat, o.lat)
			ok := false
			if log != nil {
				ok = ref.checkLiveOut(log, o.op.page, o.lo, o.hi, o.nbrs.Neighbors)
			} else {
				ok = samePages(o.nbrs.Neighbors, ref.out[o.op.page])
			}
			if !ok || o.nbrs.Page != o.op.page {
				fail("/out?page=%d: %d neighbours, not a replay state", o.op.page, len(o.nbrs.Neighbors))
			}
		case opQuery:
			mineLat = append(mineLat, o.lat)
			if err := rowsMatch(o.rows.Rows, ref.rows[o.op.q]); err != nil || o.rows.Query != int(o.op.q) {
				fail("/query?q=%d: %v", o.op.q, err)
			}
		case opUpdate:
			updLat = append(updLat, o.lat)
		}
	}
	lost, backFailed := 0, 0
	for _, o := range m.back {
		rep.Attempted++
		want := ref.replayState(log, o.op.page, len(log.batches))
		if o.err != nil || !samePages(o.nbrs.Neighbors, want) {
			if o.err == nil && samePages(o.nbrs.Neighbors, ref.out[o.op.page]) {
				lost++
			}
			backFailed++
			rep.Failed++
		}
	}
	if len(m.back) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: read-back after restart: %d of %d mutated pages failed, %d of them back at the pre-update state (acknowledged updates lost on restart)\n",
			backFailed, len(m.back), lost)
	}
	// A read-back that returns the page's pre-update list is the known
	// lost-update fault; every other failure is a wrong answer.
	rep.Correct = rep.Failed == lost

	st := m.st
	ops := float64(completed)
	set := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	pick := func(f func(buildResult) float64) float64 {
		v := make([]float64, len(m.builds))
		for i, b := range m.builds {
			v[i] = f(b)
		}
		return median(v)
	}
	// The end-to-end metrics are those the host's speed does not move:
	// sizes and modeled disk time, plus the set-up time. The speed of
	// the virtual machine the benchmark was made on swings by up to 2x
	// over minutes (CPU time included), so every timing of the timed
	// phase is reported with the traced run instead.
	if !cfg.traced {
		last := m.builds[len(m.builds)-1]
		set("setup_s", "s", median(m.setupS))
		set("build_peak_rss_mb", "MB", pick(func(b buildResult) float64 { return b.PeakRSSMB }))
		set("serve_peak_rss_mb", "MB", st.MaxRSSMB)
		set("bits_per_edge", "bits/edge", 8*float64(last.WGBytes)/float64(last.Edges))
		set("modeled_disk_ms_per_op", "ms", float64(st.ModeledNs)/1e6/ops)
		return rep
	}
	set("build_s", "s", pick(func(b buildResult) float64 { return b.TotalS }))
	set("build_cpu_s", "s", pick(func(b buildResult) float64 { return b.CPUS }))
	set("cpu_ms_per_op", "ms", float64(st.CPUNs)/1e6/ops)
	set("nav_p50_ms", "ms", percentileMS(navLat, 0.50))
	set("ops_per_s", "1/s", ops/m.wall.Seconds())
	set("nav_p90_ms", "ms", percentileMS(navLat, 0.90))
	set("nav_p99_ms", "ms", percentileMS(navLat, 0.99))
	set("mining_p50_ms", "ms", percentileMS(mineLat, 0.50))
	set("mining_p90_ms", "ms", percentileMS(mineLat, 0.90))
	set("ingest.s", "s", pick(func(b buildResult) float64 { return b.IngestS }))
	set("ingest.peak_heap_mb", "MB", pick(func(b buildResult) float64 { return b.IngestHeapMB }))
	set("refine.s", "s", pick(func(b buildResult) float64 { return b.RefineS }))
	set("refine.rounds", "count", pick(func(b buildResult) float64 { return b.RefineRounds }))
	set("refine.peak_heap_mb", "MB", pick(func(b buildResult) float64 { return b.RefineHeapMB }))
	set("encode.s", "s", pick(func(b buildResult) float64 { return b.EncodeS }))
	set("encode.peak_heap_mb", "MB", pick(func(b buildResult) float64 { return b.EncodeHeapMB }))
	set("index.s", "s", pick(func(b buildResult) float64 { return b.IndexS }))

	sp := st.Spans
	per := func(n int64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	navOps, mineOps := float64(len(navLat)), float64(len(mineLat))
	set("serve.self_us.nav", "us", per(sp.NavHandlerNs-sp.NavStoreNs, navOps)/1e3)
	// Engine time comes from the program's query_latency_q* histograms.
	// Shard servers answer the router's partial queries, which feed no
	// histogram; there it is timed around the engine call (see
	// shardEngineTimer).
	engine := st.EngineMine
	if cfg.w.mode == modeK2 {
		engine = sp.ShardEngineNs
	}
	set("serve.self_us.mining", "us", per(sp.MiningHandlerNs-engine, mineOps)/1e3)
	set("admission.wait_us.p50", "us", float64(st.AdmWaitP50)/1e3)
	set("admission.wait_us.p99", "us", float64(st.AdmWaitP99)/1e3)
	set("admission.shed", "count", float64(st.AdmShed))
	set("router.self_us", "us", per(sp.RouterSelfNs, float64(sp.RouterRequests))/1e3)
	set("router.legs_per_op", "count", per(sp.Legs, ops))
	boundary, overlay := 0.0, 0.0
	if cfg.w.mode == modeK2 {
		boundary = per(sp.WrapperSelfNs, ops) / 1e3
	} else if cfg.w.mode == modeLive {
		overlay = per(sp.WrapperSelfNs, float64(sp.StoreCalls)) / 1e3
	}
	set("shard.boundary_us_per_op", "us", boundary)
	set("query.engine_ms_per_mining_op", "ms", per(engine-sp.MiningStoreNs, mineOps)/1e6)
	set("query.store_calls_per_op", "count", per(sp.StoreCalls, ops))
	set("store.out_us", "us", per(sp.StoreNs, float64(sp.StoreCalls))/1e3)
	set("cache.hit_ratio", "ratio", per(st.CacheHits, float64(st.CacheHits+st.CacheMisses)))
	set("cache.misses_per_op", "count", per(st.CacheMisses, ops))
	set("cache.evictions_per_op", "count", per(st.Evictions, ops))
	set("cache.coalesced_per_op", "count", per(st.Coalesced, ops))
	set("decode.ms_per_op", "ms", per(st.DecodeNs, ops)/1e6)
	set("decoded_edges_per_op", "count", per(st.Decoded, ops))
	for _, k := range []string{"intra", "super_pos", "super_neg"} {
		set("decode.ns_per_edge."+k, "ns", st.DecodeNsEdge[k])
	}
	set("iosim.reads_per_op", "count", per(st.IOReads, ops))
	set("iosim.seeks_per_op", "count", per(st.IOSeeks, ops))
	set("iosim.kb_per_op", "KB", per(st.IOBytes, ops)/1024)
	set("delta.apply_us", "us", per(sp.ApplyNs, float64(len(updLat)))/1e3)
	set("delta.overlay_read_us", "us", overlay)
	set("delta.segments_per_read", "count", per(st.SegReads, float64(st.Lookups)))
	set("delta.seals", "count", float64(st.Seals))
	set("delta.merges", "count", float64(st.Merges))
	// Bytes applied are counted at the memtable's accounting cost of 16
	// bytes per (src, dst, op) entry.
	set("delta.rewrite_ratio", "ratio", per(st.MergeOut, float64(st.Applied*16)))
	set("update_p50_ms", "ms", percentileMS(updLat, 0.50))
	set("update_p99_ms", "ms", percentileMS(updLat, 0.99))
	return rep
}

// checkArtifact decodes the served WG representation whole and compares
// it with the input graph; at K=2 each page's list is its owning
// shard's intra-shard list plus its forward boundary list.
func checkArtifact(mode, art string, ref *reference) error {
	model := iosim.Model2002()
	decode := func(dir string) (*webgraph.Graph, error) {
		r, err := snode.Open(dir, 1<<20, model)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return r.DecodeAll()
	}
	var list func(p webgraph.PageID) []webgraph.PageID
	if mode == modeK2 {
		m, err := shard.LoadManifest(art)
		if err != nil {
			return err
		}
		bounds, err := shard.LoadFwdBoundaries(art, m)
		if err != nil {
			return err
		}
		gs := make([]*webgraph.Graph, m.NumShards)
		for i, e := range m.Shards {
			if gs[i], err = decode(filepath.Join(art, e.Dir, fwdDir)); err != nil {
				return err
			}
		}
		list = func(p webgraph.PageID) []webgraph.PageID {
			s := m.ShardOf(p)
			return append(append([]webgraph.PageID(nil), gs[s].Out(p)...), bounds[s].Out(p)...)
		}
	} else {
		g, err := decode(filepath.Join(art, fwdDir))
		if err != nil {
			return err
		}
		list = func(p webgraph.PageID) []webgraph.PageID {
			return append([]webgraph.PageID(nil), g.Out(p)...)
		}
	}
	for p := range ref.out {
		l := list(webgraph.PageID(p))
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		if !samePages(l, ref.out[p]) {
			return fmt.Errorf("page %d decodes to %d edges, input has %d", p, len(l), len(ref.out[p]))
		}
	}
	return nil
}
