package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"snode/internal/query"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Topologies a workload serves.
const (
	modeSingle = "single" // one serve.Server over the bare S-Node stores
	modeK2     = "k2"     // router over K=2 in-process shard servers
	modeLive   = "live"   // one serve.Server over delta overlays, with /update
)

// workload fixes everything about a run except the seed and the length.
type workload struct {
	name   string
	mode   string
	budget int64 // graph-cache budget per S-Node representation, bytes
	why    string
}

// The three workloads share one corpus and the default codec; they
// differ in cache budget, topology and traffic (see README.md).
var workloads = []workload{
	{"cold-nav", modeSingle, 1 << 20, "cache far below the decoded working set: /out misses, so decode, graph cache and iosim dominate"},
	{"hot-k2", modeK2, 4 << 20, "router over K=2 shards with a cache holding the Zipf-hot set: query engine, merge and HTTP dominate"},
	{"live-churn", modeLive, 1 << 20, "delta overlays and the compactor under concurrent update batches and reads, then a restart"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sets the input sizes. The benchmark runs fullScale; the test
// runs a tiny one so the checks can be exercised in seconds.
type scale struct {
	pages      int
	mutated    int // live-churn: pages the mutation log touches
	batchSize  int // live-churn: mutations per update batch
	warmRounds int
}

var fullScale = scale{pages: 100000, mutated: 1000, batchSize: 400, warmRounds: 40}

// opKind is what one client operation does.
type opKind uint8

const (
	opOut opKind = iota
	opQuery
	opUpdate
	opReadBack
)

// op is one client operation.
type op struct {
	kind  opKind
	page  webgraph.PageID // opOut, opReadBack
	q     query.ID        // opQuery
	batch int             // opUpdate: index into the mutation log
}

// traffic is a run's generated operation lists, one per client.
type traffic struct {
	clients [][]op // timed phase
	rounds  int    // lockstep rounds of the timed phase (see runClients)
	warm    [][]op // warm-up, outside the timed phase
}

// roundsFor converts the run length into a fixed number of traffic
// rounds: the same --seconds always yields the same operations, so the
// counts and the failure share repeat exactly, and the per-second rate
// is calibrated so a run measures about --seconds on a 2-CPU host.
func roundsFor(w workload, seconds int) int {
	return map[string]int{"cold-nav": 32, "hot-k2": 48, "live-churn": 30}[w.name] * seconds
}

// batchesPerRound is how many update batches live-churn's writer posts
// per traffic round.
const batchesPerRound = 10

// zipfPages is Zipf(1.2) page popularity: rank r (from 0) is drawn
// with probability proportional to (1+r)^-1.2, as rand.Zipf with v=1
// draws it. Ranks map to pages through a permutation fixed with the
// corpus, so the hot pages are spread over domains and are the same
// pages in every run.
type zipfPages struct {
	cdf  []float64 // cdf[r]: probability of a rank <= r
	perm []int
}

func newZipfPages(n int) *zipfPages {
	zp := &zipfPages{cdf: make([]float64, n), perm: rand.New(rand.NewSource(corpusSeed)).Perm(n)}
	sum := 0.0
	for r := range zp.cdf {
		sum += math.Pow(float64(1+r), -1.2)
		zp.cdf[r] = sum
	}
	for r := range zp.cdf {
		zp.cdf[r] /= sum
	}
	return zp
}

// page is the page at popularity quantile u in [0, 1).
func (zp *zipfPages) page(u float64) webgraph.PageID {
	return webgraph.PageID(zp.perm[min(sort.SearchFloat64s(zp.cdf, u), len(zp.perm)-1)])
}

// pageStream is a run's pre-drawn sequence of requested pages.
type pageStream struct {
	pages []webgraph.PageID
	i     int
}

func (ps *pageStream) next() webgraph.PageID {
	p := ps.pages[ps.i]
	ps.i++
	return p
}

// stratified draws k pages, one from each of k equal-probability slices
// of the popularity distribution (page(u) at a random u within the
// slice), in a random order. Each request still follows the
// distribution, but a run's set of pages covers it evenly: how many of
// the rare, expensive pages a run meets then hardly varies from seed to
// seed, as it would with k independent draws.
func stratified(rng *rand.Rand, k int, page func(u float64) webgraph.PageID) *pageStream {
	ps := &pageStream{pages: make([]webgraph.PageID, k)}
	for i := range ps.pages {
		ps.pages[i] = page((float64(i) + rng.Float64()) / float64(k))
	}
	rng.Shuffle(k, func(i, j int) { ps.pages[i], ps.pages[j] = ps.pages[j], ps.pages[i] })
	return ps
}

// makeTraffic generates the operation lists of a workload. Every round
// is the same mix. cold-nav and hot-k2 run one closed-loop client: with
// a second one, an /out queued behind the other client's query on this
// 2-CPU host, and nav_p99_ms doubled whenever the host lost CPU to
// other tenants. live-churn runs a writer and a reader.
func makeTraffic(w workload, seed uint64, rounds int, sc scale, log *mutationLog) traffic {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	n := sc.pages
	t := traffic{rounds: 1}
	// Mining traffic cycles through Q1-Q6 with Q2 twice, seven queries
	// a cycle: with six equal shares the median would fall exactly on
	// the boundary between the third and fourth slowest query and read
	// as the extreme of one of them; in sevenths neither the median nor
	// p90 lands on a boundary.
	cycle := []query.ID{query.Q1, query.Q2, query.Q3, query.Q4, query.Q2, query.Q5, query.Q6}
	qi := 0
	nextQ := func() query.ID {
		q := cycle[qi%len(cycle)]
		qi++
		return q
	}
	switch w.mode {
	case modeSingle:
		// 19 uniform /out and one /query per round: about 5 % mining.
		uniform := func(u float64) webgraph.PageID { return webgraph.PageID(u * float64(n)) }
		var pages *pageStream
		round := func() []op {
			ops := make([]op, 0, 20)
			for i := 0; i < 19; i++ {
				ops = append(ops, op{kind: opOut, page: pages.next()})
			}
			return append(ops, op{kind: opQuery, q: nextQ()})
		}
		pages = stratified(rng, 19*sc.warmRounds, uniform)
		t.warm = repeat(sc.warmRounds, round)
		pages = stratified(rng, 19*rounds, uniform)
		t.clients = repeat(rounds, round)
	case modeK2:
		// Five Zipf /out and two /query per round: queries carry most
		// of the work.
		zp := newZipfPages(n)
		var pages *pageStream
		round := func() []op {
			return []op{
				{kind: opOut, page: pages.next()},
				{kind: opOut, page: pages.next()},
				{kind: opQuery, q: nextQ()},
				{kind: opOut, page: pages.next()},
				{kind: opQuery, q: nextQ()},
				{kind: opOut, page: pages.next()},
				{kind: opOut, page: pages.next()},
			}
		}
		// The warm-up fills the cache with the hot set.
		pages = stratified(rng, 5*3*sc.warmRounds, zp.page)
		t.warm = repeat(sc.warmRounds*3, round)
		pages = stratified(rng, 5*rounds, zp.page)
		t.clients = repeat(rounds, round)
	case modeLive:
		// Client 0 writes the whole mutation log, one batch per op;
		// client 1 reads: 12 Zipf /out and one /query per round. The
		// Zipf permutation is the one the log drew its pages from, so
		// the hot pages are the mutated ones.
		writes := make([]op, len(log.batches))
		for i := range writes {
			writes[i] = op{kind: opUpdate, batch: i}
		}
		var reads []op
		pages := stratified(rng, 12*rounds, log.zipf.page)
		for r := 0; r < rounds; r++ {
			for i := 0; i < 12; i++ {
				reads = append(reads, op{kind: opOut, page: pages.next()})
			}
			reads = append(reads, op{kind: opQuery, q: nextQ()})
		}
		// Writer and reader advance in lockstep, batchesPerRound beside
		// 12 /out and a /query per round: a run does not end with one
		// client working alone, and the reads meet the same share of
		// concurrent writes in every run.
		t.clients = [][]op{writes, reads}
		t.rounds = rounds
		var warm []op
		pages = stratified(rng, sc.warmRounds, log.zipf.page)
		for i := 0; i < sc.warmRounds; i++ {
			warm = append(warm, op{kind: opOut, page: pages.next()})
		}
		for _, q := range query.All() {
			warm = append(warm, op{kind: opQuery, q: q})
		}
		t.warm = [][]op{warm}
	}
	return t
}

// repeat generates rounds into one client's list.
func repeat(rounds int, round func() []op) [][]op {
	var ops []op
	for r := 0; r < rounds; r++ {
		ops = append(ops, round()...)
	}
	return [][]op{ops}
}

// mutation is one link change of the log.
type mutation struct {
	Src webgraph.PageID `json:"src"`
	Dst webgraph.PageID `json:"dst"`
	Op  string          `json:"op"` // "add" or "remove"
}

// mutationLog is live-churn's seeded update stream plus what the
// reference checks need to replay it.
type mutationLog struct {
	batches [][]mutation
	pages   []webgraph.PageID // every mutated page, ascending
	zipf    *zipfPages
	// byPage holds each mutated page's mutations in log order, tagged
	// with their batch index, for the sequential replay.
	byPage map[webgraph.PageID][]pageMutation
}

type pageMutation struct {
	batch int
	dst   webgraph.PageID
	add   bool
}

// makeMutationLog draws the live-churn update stream. The mutated pages
// are the most popular pages outside the query-read set; each batch
// touches distinct pages (one mutation per page), half removing an edge
// the page has at that point and half adding a random new target. A
// page's first mutation adds an anchor edge that is never removed, so
// every mutated page differs from the base graph from then on and a
// lost update always shows at read-back. Sources avoid pages whose
// out-lists the six queries read and targets avoid pages whose in-lists
// they read, so the query answers do not depend on how far the log has
// been applied.
func makeMutationLog(seed uint64, ref *reference, batches int, sc scale) (*mutationLog, error) {
	rng := rand.New(rand.NewSource(int64(seed)*104729 + 3))
	n := sc.pages
	log := &mutationLog{zipf: newZipfPages(n), byPage: map[webgraph.PageID][]pageMutation{}}
	for _, p := range log.zipf.perm {
		if len(log.pages) == sc.mutated {
			break
		}
		if !ref.fwdRead[p] {
			log.pages = append(log.pages, webgraph.PageID(p))
		}
	}
	if len(log.pages) < sc.mutated || sc.batchSize > sc.mutated {
		return nil, fmt.Errorf("mutation log: %d eligible pages for %d mutated / batch %d", len(log.pages), sc.mutated, sc.batchSize)
	}
	type pageState struct {
		set    map[webgraph.PageID]bool
		anchor webgraph.PageID
		list   []webgraph.PageID // removable edges, in insertion order
	}
	states := make(map[webgraph.PageID]*pageState, len(log.pages))
	for _, p := range log.pages {
		st := &pageState{set: map[webgraph.PageID]bool{}, anchor: -1}
		for _, t := range ref.out[p] {
			st.set[t] = true
			if !ref.revRead[t] {
				st.list = append(st.list, t)
			}
		}
		states[p] = st
	}
	randomTarget := func(p webgraph.PageID, st *pageState) webgraph.PageID {
		for {
			t := webgraph.PageID(rng.Intn(n))
			if t != p && !st.set[t] && !ref.revRead[t] {
				return t
			}
		}
	}
	idx := make([]int, len(log.pages))
	for i := range idx {
		idx[i] = i
	}
	for b := 0; b < batches; b++ {
		// A partial Fisher-Yates shuffle picks batchSize distinct pages.
		batch := make([]mutation, 0, sc.batchSize)
		for i := 0; i < sc.batchSize; i++ {
			j := i + rng.Intn(len(idx)-i)
			idx[i], idx[j] = idx[j], idx[i]
			p := log.pages[idx[i]]
			st := states[p]
			m := mutation{Src: p, Op: "add"}
			switch {
			case st.anchor < 0:
				m.Dst = randomTarget(p, st)
				st.anchor = m.Dst
				st.set[m.Dst] = true
			case len(st.list) > 0 && rng.Intn(2) == 0:
				k := rng.Intn(len(st.list))
				m.Dst, m.Op = st.list[k], "remove"
				st.list[k] = st.list[len(st.list)-1]
				st.list = st.list[:len(st.list)-1]
				delete(st.set, m.Dst)
			default:
				m.Dst = randomTarget(p, st)
				st.set[m.Dst] = true
				st.list = append(st.list, m.Dst)
			}
			batch = append(batch, m)
			log.byPage[p] = append(log.byPage[p], pageMutation{batch: b, dst: m.Dst, add: m.Op == "add"})
		}
		log.batches = append(log.batches, batch)
	}
	sort.Slice(log.pages, func(i, j int) bool { return log.pages[i] < log.pages[j] })
	return log, nil
}

// corpusSeed is the crawl seed of snbench's query experiments
// (bench.Default). The corpus is that one crawl for every run: --seed
// draws the traffic and the mutation log, so figures from different
// seeds differ by sampling only, not by corpus make-up (the six
// queries' page sets change size from crawl to crawl).
const corpusSeed = 20030226

// generateCrawl makes the corpus every workload serves.
func generateCrawl(pages int) (*synth.Crawl, error) {
	cfg := synth.DefaultConfig(pages)
	cfg.Seed = corpusSeed
	return synth.Generate(cfg)
}
