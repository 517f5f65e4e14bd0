package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"snode/internal/corpusio"
	"snode/internal/ingest"
	"snode/internal/iosim"
	pmetrics "snode/internal/metrics"
	"snode/internal/pagerank"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Artifact names of a single-node build. The program persists the
// S-Node stores itself; the page metadata and the PageRank vector are
// written the way the sharded build writes its replicated copies.
const (
	metaFile     = "meta.bin"
	pageRankFile = "pagerank.bin"
	fwdDir       = "snode.fwd"
	revDir       = "snode.rev"
)

// buildResult is what a build child reports. The phase fields are
// filled in every run (they cost one clock read each); the heap peaks
// only in the traced run, whose sampler reads the runtime's heap gauge.
type buildResult struct {
	TotalS       float64 `json:"total_s"`
	IngestS      float64 `json:"ingest_s"`
	RefineS      float64 `json:"refine_s"`
	RefineRounds float64 `json:"refine_rounds"`
	EncodeS      float64 `json:"encode_s"`
	IndexS       float64 `json:"index_s"`
	IngestHeapMB float64 `json:"ingest_heap_mb"`
	RefineHeapMB float64 `json:"refine_heap_mb"`
	EncodeHeapMB float64 `json:"encode_heap_mb"`
	CPUS         float64 `json:"cpu_s"` // user + system CPU time of the whole build
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	Edges        int64   `json:"edges"`
	WGBytes      int64   `json:"wg_bytes"`
}

// heapPeak samples the live heap every millisecond and keeps the
// largest value seen since the last reset.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// takeMB returns the peak since the previous call and resets it.
func (h *heapPeak) takeMB() float64 {
	if h == nil {
		return 0
	}
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapPeak) close() {
	if h != nil {
		close(h.stop)
		h.wg.Wait()
	}
}

// buildMain is the build child: it ingests the exported edge list and
// builds the workload's artifacts into -out, in a process of its own so
// its peak RSS is measured apart from serving.
func buildMain(args []string) error {
	fs := flag.NewFlagSet("child-build", flag.ContinueOnError)
	mode := fs.String("mode", modeSingle, "single or k2")
	in := fs.String("in", "", "edge list to ingest (urls.tsv and manifest beside it)")
	out := fs.String("out", "", "artifact directory")
	traced := fs.Bool("trace", false, "sample the heap per build phase")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var hp *heapPeak
	if *traced {
		hp = startHeapPeak()
		defer hp.close()
	}
	var res buildResult
	var err error
	start := time.Now()
	if *mode == modeK2 {
		err = buildK2(*in, *out, hp, &res)
	} else {
		err = buildSingle(*in, *out, hp, &res)
	}
	if err != nil {
		return err
	}
	res.TotalS = time.Since(start).Seconds()
	res.CPUS = float64(cpuNow()) / 1e9
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func ingestPhase(in string, hp *heapPeak, res *buildResult) (*synth.Crawl, error) {
	hp.takeMB()
	t := time.Now()
	crawl, _, err := ingest.Ingest(context.Background(), in, ingest.Options{Format: ingest.FormatSNAP})
	if err != nil {
		return nil, err
	}
	res.IngestS = time.Since(t).Seconds()
	res.IngestHeapMB = hp.takeMB()
	res.Edges = crawl.Corpus.Graph.NumEdges()
	return crawl, nil
}

// buildSingle builds what the single-node server opens: the page
// metadata, the PageRank vector and the transpose (index.s), then the
// S-Node representations of WG and WGT, one snode.BuildCtx call each.
// As in buildK2, refinement time and rounds come from the build_*
// instruments the calls feed, the rest of each call counts as encoding,
// and both heap peaks are the calls' peak. The text index is not built
// here: the server builds it when it opens the artifacts.
func buildSingle(in, out string, hp *heapPeak, res *buildResult) error {
	crawl, err := ingestPhase(in, hp, res)
	if err != nil {
		return err
	}
	c := crawl.Corpus
	t := time.Now()
	pr := pagerank.Normalize(pagerank.Compute(c.Graph, pagerank.DefaultConfig()))
	rev := &webgraph.Corpus{Graph: c.Graph.Transpose(), Pages: c.Pages}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeMeta(out, crawl, pr); err != nil {
		return err
	}
	res.IndexS = time.Since(t).Seconds()

	cfg := snode.DefaultConfig()
	reg := pmetrics.NewRegistry()
	cfg.Metrics = reg
	hp.takeMB()
	t = time.Now()
	for _, d := range []struct {
		c   *webgraph.Corpus
		dir string
	}{{c, fwdDir}, {rev, revDir}} {
		dir := filepath.Join(out, d.dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		st, err := snode.BuildCtx(context.Background(), d.c, cfg, dir)
		if err != nil {
			return err
		}
		if d.dir == fwdDir {
			res.WGBytes = st.SizeBytes()
		}
	}
	splitBuild(reg, time.Since(t).Seconds(), hp, res)
	return nil
}

// splitBuild divides a build call's time into refinement, read from the
// build_* instruments, and encoding, the rest of the call.
func splitBuild(reg *pmetrics.Registry, total float64, hp *heapPeak, res *buildResult) {
	snap := reg.Snapshot()
	res.RefineS = float64(snap.Histograms["build_refine_round_ns"].Sum) / 1e9
	res.RefineRounds = float64(snap.Counters["build_refine_rounds"])
	res.EncodeS = total - res.RefineS
	res.EncodeHeapMB = hp.takeMB()
	res.RefineHeapMB = res.EncodeHeapMB
}

// buildK2 runs the sharded build at K=2. shard.Build does refinement,
// encoding and the replicated indexes in one call; refinement time and
// rounds come from the build_* instruments it feeds, and the rest of
// the call counts as encoding.
func buildK2(in, out string, hp *heapPeak, res *buildResult) error {
	crawl, err := ingestPhase(in, hp, res)
	if err != nil {
		return err
	}
	cfg := snode.DefaultConfig()
	reg := pmetrics.NewRegistry()
	cfg.Metrics = reg
	hp.takeMB()
	t := time.Now()
	m, err := shard.Build(crawl, 2, out, cfg)
	if err != nil {
		return err
	}
	splitBuild(reg, time.Since(t).Seconds(), hp, res)
	// The WG representation served at K=2: both shards' forward stores
	// plus the forward boundary files.
	for _, e := range m.Shards {
		r, err := snode.Open(filepath.Join(out, e.Dir, fwdDir), 1<<20, iosim.Model2002())
		if err != nil {
			return err
		}
		res.WGBytes += r.SizeBytes()
		r.Close()
		fi, err := os.Stat(filepath.Join(out, e.BoundaryFwd))
		if err != nil {
			return err
		}
		res.WGBytes += fi.Size()
	}
	return nil
}

// writeMeta persists the page metadata (an edge-free corpus, as the
// sharded build replicates it) and the PageRank vector.
func writeMeta(dir string, crawl *synth.Crawl, pr []float64) error {
	n := crawl.Corpus.Graph.NumPages()
	empty, err := webgraph.NewGraphCSR(make([]int64, n+1), nil)
	if err != nil {
		return err
	}
	meta := &synth.Crawl{Corpus: &webgraph.Corpus{Graph: empty, Pages: crawl.Corpus.Pages}, Order: crawl.Order}
	if err := corpusio.Write(meta, filepath.Join(dir, metaFile)); err != nil {
		return err
	}
	buf := make([]byte, 8*len(pr))
	for i, v := range pr {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return os.WriteFile(filepath.Join(dir, pageRankFile), buf, 0o644)
}

func readPageRank(path string, n int) ([]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("%s: %d bytes for %d pages", path, len(buf), n)
	}
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return pr, nil
}
