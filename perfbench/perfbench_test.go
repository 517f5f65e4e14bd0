package main

import (
	"errors"
	"os"
	"testing"

	"snode/internal/query"
	"snode/internal/webgraph"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runs below re-execute it as their build and serve children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "child-build":
			err = buildMain(os.Args[2:])
		case "child-serve":
			err = serveMain(os.Args[2:])
		default:
			os.Exit(m.Run())
		}
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var tinyScale = scale{pages: 4000, mutated: 100, batchSize: 40, warmRounds: 4}

// tinyRun runs a workload at tiny scale from one client, so its
// operation counts repeat exactly.
func tinyRun(t *testing.T, name string, traced bool) (runConfig, *measured) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{w: w, seed: 1, seconds: 1, traced: traced, sc: tinyScale, dir: t.TempDir(), self: self, oneClient: true}
	m, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, m
}

// perturbed returns a copy of m whose i-th timed outcome is replaced.
func perturbed(m *measured, i int, o outcome) *measured {
	c := *m
	c.outs = append([]outcome(nil), m.outs...)
	c.outs[i] = o
	return &c
}

func firstOf(t *testing.T, m *measured, ok func(outcome) bool) int {
	t.Helper()
	for i, o := range m.outs {
		if ok(o) {
			return i
		}
	}
	t.Fatal("no outcome to perturb")
	return -1
}

func TestChecksReportFailures(t *testing.T) {
	cfg, m := tinyRun(t, "cold-nav", false)
	if rep := evaluate(cfg, m); rep.Failed != 0 || !rep.Correct {
		t.Fatalf("clean run: %d of %d failed, correct %v", rep.Failed, rep.Attempted, rep.Correct)
	}
	out := firstOf(t, m, func(o outcome) bool { return o.op.kind == opOut && len(o.nbrs.Neighbors) > 0 })
	q := firstOf(t, m, func(o outcome) bool { return o.op.kind == opQuery && len(o.rows.Rows) > 1 })

	flipped := m.outs[out]
	flipped.nbrs.Neighbors = append([]webgraph.PageID(nil), flipped.nbrs.Neighbors...)
	flipped.nbrs.Neighbors[0] = (flipped.nbrs.Neighbors[0] + 1) % webgraph.PageID(tinyScale.pages)
	dropped := m.outs[q]
	dropped.rows.Rows = dropped.rows.Rows[:len(dropped.rows.Rows)-1]
	changed := m.outs[q]
	changed.rows.Rows = append([]query.Row(nil), changed.rows.Rows...)
	changed.rows.Rows[0].Value++
	for name, c := range map[string]*measured{
		"flipped edge": perturbed(m, out, flipped),
		"dropped row":  perturbed(m, q, dropped),
		"changed row":  perturbed(m, q, changed),
	} {
		if rep := evaluate(cfg, c); rep.Failed != 1 || rep.Correct {
			t.Errorf("%s: %d failed operations, correct %v; want 1, false", name, rep.Failed, rep.Correct)
		}
	}
	bad := *m
	bad.artErr = errors.New("page 0 decodes to 1 edges, input has 2")
	if rep := evaluate(cfg, &bad); rep.Failed != 1 || rep.Correct {
		t.Errorf("corrupt artifact: %d failed operations, correct %v; want 1, false", rep.Failed, rep.Correct)
	}

	cfg, m = tinyRun(t, "live-churn", false)
	lostAtRestart := len(m.log.pages) // every read-back loses its updates today
	if rep := evaluate(cfg, m); rep.Failed != lostAtRestart || !rep.Correct {
		t.Fatalf("live run: %d failed, correct %v; want the %d read-backs, true", rep.Failed, rep.Correct, lostAtRestart)
	}
	// A read that misses an acknowledged mutation: the answer is the
	// base list of a page mutated before the read was sent.
	i := firstOf(t, m, func(o outcome) bool {
		muts := m.log.byPage[o.op.page]
		return o.op.kind == opOut && len(muts) > 0 && muts[0].batch < o.lo
	})
	lost := m.outs[i]
	lost.nbrs.Neighbors = m.ref.out[lost.op.page]
	if rep := evaluate(cfg, perturbed(m, i, lost)); rep.Failed != lostAtRestart+1 || rep.Correct {
		t.Errorf("lost mutation: %d failed, correct %v; want %d, false", rep.Failed, rep.Correct, lostAtRestart+1)
	}
}

func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, name := range []string{"cold-nav", "hot-k2", "live-churn"} {
		t.Run(name, func(t *testing.T) {
			_, plain := tinyRun(t, name, false)
			_, traced := tinyRun(t, name, true)
			a, b := plain.st, traced.st
			for _, c := range []struct {
				what      string
				got, want int64
			}{
				{"cache hits", b.CacheHits, a.CacheHits},
				{"cache misses", b.CacheMisses, a.CacheMisses},
				{"iosim reads", b.BaseReads, a.BaseReads},
				{"iosim seeks", b.BaseSeeks, a.BaseSeeks},
				{"delta applies", b.Applied, a.Applied},
			} {
				if c.got != c.want {
					t.Errorf("%s: traced %d, untraced %d", c.what, c.got, c.want)
				}
			}
			if a.CacheMisses == 0 {
				t.Errorf("no cache misses: the count comparison is vacuous")
			}
			if name == "hot-k2" {
				// Both shards answer every routed query, each timed once.
				var queries int64
				for _, o := range traced.outs {
					if o.op.kind == opQuery {
						queries++
					}
				}
				if b.Spans.ShardEngines != 2*queries {
					t.Errorf("shard engine spans %d, want %d", b.Spans.ShardEngines, 2*queries)
				}
				return
			}
			// Every store call the engine makes passes a wrapper: one per
			// /out, and one per adjacency list the reference reads.
			var want int64
			for _, o := range traced.outs {
				switch o.op.kind {
				case opOut:
					want++
				case opQuery:
					want += int64(traced.ref.reads[o.op.q])
				}
			}
			if b.Spans.StoreCalls != want {
				t.Errorf("traced store calls %d, want %d", b.Spans.StoreCalls, want)
			}
		})
	}
}
