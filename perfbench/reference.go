package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"snode/internal/pagerank"
	"snode/internal/query"
	"snode/internal/synth"
	"snode/internal/textindex"
	"snode/internal/webgraph"
)

// reference holds the answers the benchmark checks the program against.
// It is computed from the generator's adjacency lists by brute force:
// it uses none of the query plans and no store implementation, only the
// PageRank and text indexes the queries consult.
type reference struct {
	pages   []webgraph.PageMeta
	out, in [][]webgraph.PageID // sorted adjacency of WG and WGT
	rows    map[query.ID][]query.Row
	reads   map[query.ID]int // adjacency lists each query reads

	// fwdRead / revRead mark the pages whose out- and in-lists some
	// query reads; the mutation log stays clear of them.
	fwdRead, revRead []bool
}

func newReference(c *webgraph.Corpus) *reference {
	n := c.Graph.NumPages()
	ref := &reference{
		pages:   c.Pages,
		out:     make([][]webgraph.PageID, n),
		in:      make([][]webgraph.PageID, n),
		fwdRead: make([]bool, n),
		revRead: make([]bool, n),
		reads:   map[query.ID]int{},
	}
	for p := 0; p < n; p++ {
		l := append([]webgraph.PageID(nil), c.Graph.Out(webgraph.PageID(p))...)
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		ref.out[p] = l
		for _, t := range l {
			ref.in[t] = append(ref.in[t], webgraph.PageID(p))
		}
	}
	text := textindex.Build(c.Pages)
	pr := pagerank.Normalize(pagerank.Compute(c.Graph, pagerank.DefaultConfig()))
	ref.rows = bruteForce(ref, text, pr)
	return ref
}

// domainSpan returns the contiguous page-ID range of a domain (pages
// are sorted by domain).
func domainSpan(pages []webgraph.PageMeta, d string) (lo, hi webgraph.PageID) {
	lo = webgraph.PageID(sort.Search(len(pages), func(i int) bool { return pages[i].Domain >= d }))
	hi = webgraph.PageID(sort.Search(len(pages), func(i int) bool { return pages[i].Domain > d }))
	return lo, hi
}

func sortedRows(rows []query.Row, limit int) []query.Row {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value > rows[j].Value
		}
		return rows[i].Key < rows[j].Key
	})
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// bruteForce evaluates Table 3's six queries straight from the
// adjacency lists, recording which lists each one reads.
func bruteForce(ref *reference, text *textindex.Index, pr []float64) map[query.ID][]query.Row {
	pages := ref.pages
	dom := func(p webgraph.PageID) string { return pages[p].Domain }
	inDomain := func(phrase, d string) []webgraph.PageID {
		lo, hi := domainSpan(pages, d)
		return text.LookupInRange(phrase, lo, hi)
	}
	var q query.ID // the query being evaluated, for the read counts
	out := func(p webgraph.PageID) []webgraph.PageID {
		ref.fwdRead[p] = true
		ref.reads[q]++
		return ref.out[p]
	}
	in := func(p webgraph.PageID) []webgraph.PageID {
		ref.revRead[p] = true
		ref.reads[q]++
		return ref.in[p]
	}
	rows := map[query.ID][]query.Row{}

	// Q1: .edu domains (not Stanford) cited by Stanford mobile-networking
	// pages, each citing page adding its PageRank once per domain.
	q = query.Q1
	w := map[string]float64{}
	for _, p := range inDomain(synth.PhraseMobileNetworking, "stanford.edu") {
		seen := map[string]bool{}
		for _, t := range out(p) {
			d := dom(t)
			if d != "stanford.edu" && strings.HasSuffix(d, ".edu") && len(d) > 4 && !seen[d] {
				seen[d] = true
				w[d] += pr[p]
			}
		}
	}
	var r1 []query.Row
	for d, v := range w {
		r1 = append(r1, query.Row{Key: d, Value: v})
	}
	rows[query.Q1] = sortedRows(r1, 0)

	// Q2: per comic strip, Stanford pages with two of its words plus
	// links from Stanford pages to its site.
	q = query.Q2
	slo, shi := domainSpan(pages, "stanford.edu")
	links := map[string]int{}
	for p := slo; p < shi; p++ {
		for _, t := range out(p) {
			links[dom(t)]++
		}
	}
	var r2 []query.Row
	for _, c := range synth.Comics() {
		n := links[c.Site]
		for _, p := range text.PagesWithAtLeast(c.Words, 2) {
			if p >= slo && p < shi {
				n++
			}
		}
		r2 = append(r2, query.Row{Key: c.Name, Value: float64(n)})
	}
	rows[query.Q2] = sortedRows(r2, 0)

	// Q3: Kleinberg base set of the top-100 censorship pages: the pages,
	// their out-neighbours and each one's 50 smallest in-neighbours.
	q = query.Q3
	base := map[webgraph.PageID]bool{}
	for _, p := range pagerank.TopK(pr, text.Lookup(synth.PhraseInternetCensorship), 100) {
		base[p] = true
		for _, t := range out(p) {
			base[t] = true
		}
		for i, t := range in(p) {
			if i == 50 {
				break
			}
			base[t] = true
		}
	}
	rows[query.Q3] = []query.Row{{Key: "base-set-size", Value: float64(len(base))}}

	// Q4: per university, its ten quantum-cryptography pages with the
	// most in-links from other domains.
	q = query.Q4
	var r4 []query.Row
	for _, uni := range synth.Universities() {
		var ur []query.Row
		for _, p := range inDomain(synth.PhraseQuantumCryptography, uni) {
			n := 0
			for _, s := range in(p) {
				if dom(s) != uni {
					n++
				}
			}
			ur = append(ur, query.Row{Key: uni + " " + pages[p].URL, Value: float64(n)})
		}
		r4 = append(r4, sortedRows(ur, 10)...)
	}
	rows[query.Q4] = r4

	// Q5: .edu computer-music pages ranked by in-links from the set.
	q = query.Q5
	set := map[webgraph.PageID]bool{}
	cm := text.Lookup(synth.PhraseComputerMusic)
	for _, p := range cm {
		set[p] = true
	}
	var r5 []query.Row
	for _, p := range cm {
		n := 0
		for _, s := range in(p) {
			if set[s] {
				n++
			}
		}
		if strings.HasSuffix(dom(p), ".edu") {
			r5 = append(r5, query.Row{Key: pages[p].URL, Value: float64(n)})
		}
	}
	rows[query.Q5] = sortedRows(r5, 10)

	// Q6: pages outside Stanford and Berkeley cited by interferometry
	// pages of both, ranked by total citations.
	q = query.Q6
	a := map[webgraph.PageID]int{}
	b := map[webgraph.PageID]int{}
	for i, uni := range []string{"stanford.edu", "berkeley.edu"} {
		for _, p := range inDomain(synth.PhraseOpticalInterferometry, uni) {
			for _, t := range out(p) {
				if d := dom(t); d == "stanford.edu" || d == "berkeley.edu" {
					continue
				}
				if i == 0 {
					a[t]++
				} else {
					b[t]++
				}
			}
		}
	}
	var r6 []query.Row
	for t, na := range a {
		if nb := b[t]; nb > 0 {
			r6 = append(r6, query.Row{Key: pages[t].URL, Value: float64(na + nb)})
		}
	}
	rows[query.Q6] = sortedRows(r6, 25)
	return rows
}

// rowsMatch compares a query answer with the reference. Values are
// compared with a relative tolerance: the router sums Q1's PageRank
// weights per shard, in another order than a single node does.
func rowsMatch(got, want []query.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || math.Abs(g.Value-w.Value) > 1e-9*math.Max(1, math.Abs(w.Value)) {
			return fmt.Errorf("row %d = %q %v, want %q %v", i, g.Key, g.Value, w.Key, w.Value)
		}
	}
	return nil
}

func samePages(a, b []webgraph.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayState is the sequential replay of the mutation log: page p's
// sorted out-list after the first v batches were applied.
func (ref *reference) replayState(log *mutationLog, p webgraph.PageID, v int) []webgraph.PageID {
	muts := log.byPage[p]
	if len(muts) == 0 || muts[0].batch >= v {
		return ref.out[p]
	}
	set := map[webgraph.PageID]bool{}
	for _, t := range ref.out[p] {
		set[t] = true
	}
	for _, m := range muts {
		if m.batch >= v {
			break
		}
		if m.add {
			set[m.dst] = true
		} else {
			delete(set, m.dst)
		}
	}
	l := make([]webgraph.PageID, 0, len(set))
	for t := range set {
		l = append(l, t)
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l
}

// checkLiveOut accepts a read of page p that overlapped the writer: lo
// batches were acknowledged before the read was sent and hi had been
// sent when its answer came back, so any replay state in [lo, hi] is a
// correct answer.
func (ref *reference) checkLiveOut(log *mutationLog, p webgraph.PageID, lo, hi int, got []webgraph.PageID) bool {
	if samePages(got, ref.replayState(log, p, lo)) {
		return true
	}
	for _, m := range log.byPage[p] {
		if m.batch < lo {
			continue
		}
		if m.batch >= hi {
			break
		}
		if samePages(got, ref.replayState(log, p, m.batch+1)) {
			return true
		}
	}
	return false
}
