package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// memCall is one recorded call into a design: a demand access (read or
// write) or an LLC writeback.
type memCall struct {
	now  uint64
	a    addr.Addr
	kind uint8
}

const (
	callRead uint8 = iota
	callWrite
	callWriteback
)

// recorder forwards every call to the wrapped design and records it, so
// the design's inputs can be replayed on a fresh build.
type recorder struct {
	hmm.MemSystem
	calls []memCall
}

func (r *recorder) Access(now uint64, a addr.Addr, write bool) uint64 {
	k := callRead
	if write {
		k = callWrite
	}
	r.calls = append(r.calls, memCall{now, a, k})
	return r.MemSystem.Access(now, a, write)
}

func (r *recorder) Writeback(now uint64, a addr.Addr) {
	r.calls = append(r.calls, memCall{now, a, callWriteback})
	r.MemSystem.Writeback(now, a)
}

// stateRecorder is a recorder over a design that reports telemetry state;
// the harness samples that state at every telemetry epoch.
type stateRecorder struct{ *recorder }

func (s stateRecorder) TelemetryState() telemetry.DesignState {
	return s.MemSystem.(hmm.StateReporter).TelemetryState()
}

func newRecorder(mem hmm.MemSystem) *recorder { return &recorder{MemSystem: mem} }

// wrapped returns the recorder as the MemSystem to hand the harness,
// forwarding StateReporter when the design implements it.
func (r *recorder) wrapped() hmm.MemSystem {
	if _, ok := r.MemSystem.(hmm.StateReporter); ok {
		return stateRecorder{r}
	}
	return r
}

// replayBatch is cpu.Run's trace ingestion batch size; replays pull the
// stream in the same batches.
const replayBatch = 4096

// replayTrace times trace.NewSynthetic plus NextBatch over n accesses of
// profile p, and returns the stream for the next layer's replay.
func replayTrace(jt *obs.JobTrace, parent obs.SpanID, p trace.Profile, n int) ([]trace.Access, time.Duration, error) {
	acc := make([]trace.Access, n)
	sp := jt.Start(parent, "trace")
	gen, err := trace.NewSynthetic(p)
	if err != nil {
		jt.Fail(sp, err)
		return nil, 0, err
	}
	for i := 0; i < n; {
		i += gen.NextBatch(acc[i:min(i+replayBatch, n)])
	}
	return acc, jt.End(sp), nil
}

// cacheReplay is the SRAM hierarchy's outcome over a recorded stream.
type cacheReplay struct {
	misses, writebacks uint64
	dur                time.Duration
}

// replayCache times cache.Hierarchy.Access over a recorded stream on a
// fresh hierarchy.
func replayCache(jt *obs.JobTrace, parent obs.SpanID, sys config.System, acc []trace.Access) (cacheReplay, error) {
	var r cacheReplay
	hier, err := cache.NewHierarchy(sys.Caches)
	if err != nil {
		return r, err
	}
	sp := jt.Start(parent, "cache")
	for _, a := range acc {
		res := hier.Access(a.Addr, a.Write)
		if res.HitLevel < 0 {
			r.misses++
		}
		r.writebacks += uint64(len(res.Writebacks))
	}
	r.dur = jt.End(sp)
	return r, nil
}

// designReplay is a design's outcome over its recorded calls.
type designReplay struct {
	counters hmm.Counters
	dur      time.Duration
}

// replayDesign times the design's Access and Writeback over its recorded
// calls on a fresh harness.Build, with the same fault injector and
// telemetry probe the harness attaches to the cell.
func replayDesign(jt *obs.JobTrace, parent obs.SpanID, d config.Design, sys config.System, bench string, calls []memCall, epoch uint64) (designReplay, error) {
	var r designReplay
	mem, err := harness.Build(d, sys)
	if err != nil {
		return r, err
	}
	dev := mem.Devices()
	if sys.Faults.Enabled {
		dev.AttachFaults(faults.New(sys.Faults, dev.Geom.HBMPages(), runner.Seed("faults", mem.Name(), bench)))
	}
	if epoch > 0 {
		probe := telemetry.NewProbe(epoch, 0)
		reporter, _ := mem.(hmm.StateReporter)
		probe.OnEpoch = func(access, cycle uint64) {
			mem.Counters()
			if reporter != nil {
				reporter.TelemetryState()
			}
		}
		dev.AttachTelemetry(probe)
	}
	sp := jt.Start(parent, "design")
	for _, c := range calls {
		if c.kind == callWriteback {
			mem.Writeback(c.now, c.a)
		} else {
			mem.Access(c.now, c.a, c.kind == callWrite)
		}
	}
	r.dur = jt.End(sp)
	r.counters = mem.Counters()
	return r, nil
}

// cellCost is one traced cell's layer costs.
type cellCost struct {
	accesses, misses, calls           uint64
	run, trace, decode, cache, design time.Duration
}

// layerSums accumulates traced cells' costs per layer.
type layerSums struct {
	mu          sync.Mutex
	total       cellCost
	designCalls map[string]uint64
	designDur   map[string]time.Duration
}

func newLayerSums() *layerSums {
	return &layerSums{designCalls: map[string]uint64{}, designDur: map[string]time.Duration{}}
}

func (l *layerSums) add(design string, c cellCost) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := &l.total
	t.accesses += c.accesses
	t.misses += c.misses
	t.calls += c.calls
	t.run += c.run
	t.trace += c.trace
	t.decode += c.decode
	t.cache += c.cache
	t.design += c.design
	l.designCalls[design] += c.calls
	l.designDur[design] += c.design
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer          string
	calls          uint64
	dur            time.Duration
	callsPerAccess float64
	// share is the layer's time as a fraction of the traced cells' run
	// time (cell.ns_per_access × accesses): the base every share uses.
	share float64
}

func (r layerRow) nsPerCall() float64 { return share(float64(r.dur), float64(r.calls)) }

// rows derives the per-layer table. The cpu row is the run span's self
// time: the run minus the layers replayed under it.
func (l *layerSums) rows() []layerRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.total
	acc, run := float64(t.accesses), float64(t.run)
	row := func(name string, calls uint64, d time.Duration) layerRow {
		return layerRow{layer: name, calls: calls, dur: d, callsPerAccess: share(float64(calls), acc), share: share(float64(d), run)}
	}
	cpuSelf := selfTime(obs.Span{ID: 1, Dur: t.run}, []obs.Span{
		{Parent: 1, Dur: t.trace}, {Parent: 1, Dur: t.decode}, {Parent: 1, Dur: t.cache}, {Parent: 1, Dur: t.design},
	})
	out := []layerRow{
		row("cell", t.accesses, t.run),
		row("trace", t.accesses, t.trace),
		row("tracecodec", t.accesses, t.decode),
		row("cache", t.accesses, t.cache),
		row("design", t.calls, t.design),
		row("cpu", t.accesses, cpuSelf),
	}
	var ds []string
	for d := range l.designCalls {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	for _, d := range ds {
		out = append(out, row("design."+d, l.designCalls[d], l.designDur[d]))
	}
	return out
}

// setLayerMetrics reports the per-layer costs. A layer the workload does
// not exercise reports 0.
func setLayerMetrics(e *env, l *layerSums) {
	rows := l.rows()
	get := func(name string) layerRow {
		for _, r := range rows {
			if r.layer == name {
				return r
			}
		}
		return layerRow{}
	}
	e.set("cell.ns_per_access", get("cell").nsPerCall(), "ns")
	e.set("trace.ns_per_access", get("trace").nsPerCall(), "ns")
	e.set("trace.share", get("trace").share, "fraction")
	e.set("tracecodec.ns_per_access", get("tracecodec").nsPerCall(), "ns")
	e.set("cache.ns_per_access", get("cache").nsPerCall(), "ns")
	e.set("cache.share", get("cache").share, "fraction")
	l.mu.Lock()
	e.set("cache.llc_miss_share", share(float64(l.total.misses), float64(l.total.accesses)), "fraction")
	l.mu.Unlock()
	e.set("design.calls_per_access", get("design").callsPerAccess, "count")
	e.set("design.share", get("design").share, "fraction")
	e.set("cpu.ns_per_access", get("cpu").nsPerCall(), "ns")
	for _, d := range harness.AllDesigns {
		e.set("design."+string(d)+".ns_per_call", get("design."+string(d)).nsPerCall(), "ns")
	}
}

// perLayerDefaults are the per-layer metrics a workload reports as 0
// when it does not exercise their layer.
var perLayerDefaults = []struct{ name, unit string }{
	{"runner.tail_s", "s"},
	{"ckpt.append_ms_p50", "ms"},
	{"ckpt.fsyncs", "count"},
	{"telemetry.epochs", "count"},
	{"telemetry.events_dropped", "count"},
	{"alert.transitions", "count"},
	{"faults.frames_retired", "count"},
	{"faults.ecc_corrected", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.simulate_ms", "ms"},
	{"serve.write_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.data_mib", "MiB"},
}

// writeTraced finishes a traced run: the per-layer metrics, the span
// file and the per-layer table.
func writeTraced(e *env, jt *obs.JobTrace, root obs.SpanID, l *layerSums, notes []string, overhead float64) error {
	jt.End(root)
	setLayerMetrics(e, l)
	for _, d := range perLayerDefaults {
		if _, ok := e.metrics[d.name]; !ok {
			e.set(d.name, 0, d.unit)
		}
	}
	e.set("traced.overhead_share", overhead, "fraction")

	var spans bytes.Buffer
	if err := telemetry.WriteChromeTrace(&spans, []telemetry.TraceRun{jt.TraceRun(jt.Job())}); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.out, "spans.json"), spans.Bytes(), 0o644); err != nil {
		return err
	}
	var tab bytes.Buffer
	fmt.Fprintf(&tab, "# Per-layer host cost: %s (seed %d)\n\n", jt.Job(), e.seed)
	fmt.Fprintf(&tab, "Share base: the traced cells' run time (harness.Run / cpu.Run per cell).\n")
	fmt.Fprintf(&tab, "The cpu row is the run's self time: the run minus the layers replayed under it.\n\n")
	fmt.Fprintf(&tab, "| layer | calls | ns per call | calls per access | share |\n|---|---:|---:|---:|---:|\n")
	for _, r := range l.rows() {
		if r.dur == 0 {
			continue
		}
		fmt.Fprintf(&tab, "| %s | %d | %.1f | %.4f | %.4f |\n", r.layer, r.calls, r.nsPerCall(), r.callsPerAccess, r.share)
	}
	if len(notes) > 0 {
		tab.WriteString("\n")
		for _, n := range notes {
			fmt.Fprintf(&tab, "- %s\n", n)
		}
	}
	fmt.Fprintf(&tab, "\ntraced.overhead_share: %.4f (traced wall / untraced wall - 1)\n", overhead)
	if err := os.WriteFile(filepath.Join(e.out, "layers.md"), tab.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Print(tab.String())
	return nil
}
