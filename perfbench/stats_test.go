package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
)

func TestHighestPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 15, ok: false}, // the median's rank 8 leaves 7 beyond
		{n: 20, want: 50, ok: true},
		{n: 99, want: 75, ok: true},  // p90's rank 90 leaves 9 beyond
		{n: 100, want: 90, ok: true}, // p95's rank 95 leaves 5 beyond
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, got, c.n-rank(got, c.n))
		}
	}
	if got := minSamplesFor(90); got != 100 {
		t.Errorf("minSamplesFor(90) = %d, want 100", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Dur: 100},
		{ID: 2, Parent: 1, Dur: 30},
		{ID: 3, Parent: 1, Dur: 20},
		{ID: 4, Parent: 2, Dur: 25}, // a grandchild is inside its parent's 30
		{ID: 5, Dur: 70},            // another root
	}
	if got := selfTime(spans[0], spans); got != 50 {
		t.Errorf("self time of root = %v, want 50", got)
	}
	if got := selfTime(spans[1], spans); got != 5 {
		t.Errorf("self time of child = %v, want 5", got)
	}
	if got := selfTime(spans[3], spans); got != 25 {
		t.Errorf("self time of leaf = %v, want its duration 25", got)
	}
}

func TestLayerSharesUseTheRunTimeBase(t *testing.T) {
	l := newLayerSums()
	l.add("bumblebee", cellCost{accesses: 10, misses: 4, calls: 5, run: 1000, trace: 200, cache: 300, design: 100})
	l.add("hybrid2", cellCost{accesses: 10, misses: 6, calls: 15, run: 1000, trace: 200, cache: 300, design: 300})
	got := map[string]layerRow{}
	for _, r := range l.rows() {
		got[r.layer] = r
	}
	for _, c := range []struct {
		layer          string
		nsPerCall      float64
		callsPerAccess float64
		share          float64 // of the 2000 ns run time
	}{
		{"cell", 100, 1, 1},
		{"trace", 20, 1, 0.2},
		{"cache", 30, 1, 0.3},
		{"design", 20, 1, 0.2},
		{"cpu", 30, 1, 0.3}, // 2000 - 400 - 600 - 400
		{"design.bumblebee", 20, 0.25, 0.05},
		{"design.hybrid2", 20, 0.75, 0.15},
	} {
		r := got[c.layer]
		if !near(r.nsPerCall(), c.nsPerCall) || !near(r.callsPerAccess, c.callsPerAccess) || !near(r.share, c.share) {
			t.Errorf("%s: ns/call %v calls/access %v share %v; want %v %v %v",
				c.layer, r.nsPerCall(), r.callsPerAccess, r.share, c.nsPerCall, c.callsPerAccess, c.share)
		}
	}
	e := &env{metrics: map[string]metric{}}
	setLayerMetrics(e, l)
	if v := e.metrics["cache.llc_miss_share"].Value; !near(v, 0.5) {
		t.Errorf("cache.llc_miss_share = %v, want misses/accesses 10/20", v)
	}
	if v := e.metrics["design.no-hbm.ns_per_call"].Value; v != 0 {
		t.Errorf("an unexercised design reports %v, want 0", v)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCellLatenciesPerWorker(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	cs := []completion{
		{worker: 7, at: at(10)}, {worker: 8, at: at(12)}, {worker: 7, at: at(25)},
		{worker: 8, at: at(40)}, {worker: 7, at: at(30)},
	}
	got := cellLatencies(cs)
	want := map[float64]int{15: 1, 5: 1, 28: 1}
	if len(got) != 3 {
		t.Fatalf("cellLatencies = %v, want three gaps", got)
	}
	for _, v := range got {
		if want[v] != 1 {
			t.Errorf("unexpected latency %v in %v", v, got)
		}
		want[v]--
	}
	if d := tail(cs); d != 10*time.Millisecond {
		t.Errorf("tail = %v, want 40ms - 30ms", d)
	}
}

func TestServicePairsAreDistinct(t *testing.T) {
	for _, secs := range []float64{1, 10, 20, 60} {
		n := traceCount(secs)
		type pair struct {
			trace  int
			design config.Design
		}
		seen := map[pair]bool{}
		for k := 0; k < n*9; k++ {
			ti, d := newPair(k, n)
			key := pair{ti, d}
			if seen[key] {
				t.Fatalf("seconds %v: pair %d repeats (trace %d, %s)", secs, k, ti, d)
			}
			seen[key] = true
		}
		if _, d := newPair(1, n); d == config.DesignBumblebee {
			t.Errorf("designs do not rotate")
		}
	}
}
