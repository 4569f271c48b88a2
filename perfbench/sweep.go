package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// setupsPerSweep is how many times each measured sweep is set up (the
// last set-up is the one that runs): one set-up takes about a
// millisecond, so a median over a few dozen is needed for it to repeat.
const setupsPerSweep = 5

// telemetryEpoch is the fault-observed workload's sampling interval:
// twelve epochs per 120k-access cell.
const telemetryEpoch = 10_000

// sweepSpec is one sweep workload. The sweeps' inputs are fixed by the
// figure they regenerate (Table II profiles seeded by cell identity), so
// the seed argument does not change them, and their model digest must
// match across every run of a set.
type sweepSpec struct {
	name string
	// observed turns on telemetry, an alert monitor, a sweep tracker and
	// a checkpoint journal; the cells are then harness.FigFaultWith's.
	observed bool
	designs  []config.Design
	rates    []float64
}

var (
	fig8Spec  = sweepSpec{name: "fig8-sweep", designs: harness.Fig8Designs}
	faultSpec = sweepSpec{
		name:     "fault-observed",
		observed: true,
		designs:  []config.Design{config.DesignBumblebee, config.DesignHybrid2, config.DesignChameleon},
		rates:    []float64{0, 50},
	}
)

// sweepCell is one simulation of a sweep: a design under a fault rate on
// one benchmark.
type sweepCell struct {
	design config.Design
	rate   float64
	bench  trace.Benchmark
	// want indexes the untraced sweep's PerRun row this cell must
	// reproduce; -1 for Fig8's no-HBM baseline cells, which Fig8 does not
	// return and which are checked through the normalised tables instead.
	want int
}

// cells lists the sweep's simulations in the order the harness runs them.
func (s sweepSpec) cells(h *harness.Harness) []sweepCell {
	bs := h.Benchmarks()
	var out []sweepCell
	if !s.observed {
		for _, b := range bs {
			out = append(out, sweepCell{design: config.DesignNoHBM, bench: b, want: -1})
		}
		for di, d := range s.designs {
			for bi, b := range bs {
				out = append(out, sweepCell{design: d, bench: b, want: di*len(bs) + bi})
			}
		}
		return out
	}
	for di, d := range s.designs {
		for ri, r := range s.rates {
			for bi, b := range bs {
				out = append(out, sweepCell{design: d, rate: r, bench: b, want: (di*len(s.rates)+ri)*len(bs) + bi})
			}
		}
	}
	return out
}

// system is the cell's scaled configuration.
func (c sweepCell) system(h *harness.Harness) config.System {
	sys := h.System()
	sys.Faults = harness.FaultsAtRate(c.rate)
	return sys
}

// sweepRun is one set-up sweep, ready to run once.
type sweepRun struct {
	spec    sweepSpec
	h       *harness.Harness
	cells   []sweepCell
	journal *ckpt.Journal
	mon     *alert.Monitor

	mu          sync.Mutex
	completions []completion
}

// completion is one cell finishing on a sweep worker goroutine.
type completion struct {
	worker uint64
	at     time.Time
}

// sweepOutput is what one sweep produced.
type sweepOutput struct {
	rows   []harness.RunResult
	fig8   *harness.Fig8Result
	digest string
}

// newHarness is the bench-scale harness every sweep and the service use.
func newHarness() *harness.Harness {
	return &harness.Harness{Scale: benchScale, Accesses: benchAccesses, Parallel: benchWorkers}
}

// setup builds and validates the harness and configuration of one sweep:
// the benchmark profiles, every design the sweep builds, the SRAM
// hierarchy, and for the observed sweep the alert rules, sweep tracker
// and a fresh checkpoint journal in dir. This is the sweep's setup_s.
func (s sweepSpec) setup(dir string) (*sweepRun, error) {
	h := newHarness()
	r := &sweepRun{spec: s, h: h, cells: s.cells(h)}
	for _, b := range h.Benchmarks() {
		if err := b.Profile.Validate(); err != nil {
			return nil, err
		}
	}
	built := map[string]bool{}
	for _, c := range r.cells {
		key := string(c.design) + "@" + strconv.FormatFloat(c.rate, 'g', -1, 64)
		if built[key] {
			continue
		}
		built[key] = true
		sys := c.system(h)
		if err := sys.Validate(); err != nil {
			return nil, err
		}
		if _, err := harness.Build(c.design, sys); err != nil {
			return nil, err
		}
		if _, err := cache.NewHierarchy(sys.Caches); err != nil {
			return nil, err
		}
	}
	sw := obs.NewSweep(s.name)
	sw.OnUpdate = func(obs.Snapshot) { r.completed() }
	h.Obs = sw
	if s.observed {
		rules := alert.Defaults()
		if err := rules.Validate(); err != nil {
			return nil, err
		}
		r.mon = alert.NewMonitor(rules)
		sw.Alerts = r.mon
		h.Alerts = r.mon
		h.TelemetryEpoch = telemetryEpoch
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		j, err := ckpt.Create(dir, ckpt.Meta{Tool: "perfbench", Experiment: s.name, Scale: h.Scale, Accesses: h.Accesses, TelemetryEpoch: h.TelemetryEpoch})
		if err != nil {
			return nil, err
		}
		r.journal = j
		h.Journal = j
	}
	return r, nil
}

// completed records a cell completion on the calling worker goroutine.
func (r *sweepRun) completed() {
	at := time.Now()
	id := goroutineID()
	r.mu.Lock()
	r.completions = append(r.completions, completion{worker: id, at: at})
	r.mu.Unlock()
}

// goroutineID parses the calling goroutine's ID from its stack header
// ("goroutine 42 [running]:"). The sweep tracker calls OnUpdate on the
// worker that finished the cell, and Go offers no other way to tell the
// workers apart from outside the runner.
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// cellLatencies returns each cell's host time in milliseconds, taken as
// the gap between consecutive completions on one worker goroutine. A
// worker's first completion has no predecessor and is left out.
func cellLatencies(cs []completion) []float64 {
	byWorker := map[uint64][]time.Time{}
	for _, c := range cs {
		byWorker[c.worker] = append(byWorker[c.worker], c.at)
	}
	var out []float64
	for _, ts := range byWorker {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
		for i := 1; i < len(ts); i++ {
			out = append(out, ms(ts[i].Sub(ts[i-1])))
		}
	}
	return out
}

// tail is the last minus the second-to-last completion: how long the
// sweep ran on one worker after the other had nothing left to take.
func tail(cs []completion) time.Duration {
	if len(cs) < 2 {
		return 0
	}
	ts := make([]time.Time, len(cs))
	for i, c := range cs {
		ts[i] = c.at
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	return ts[len(ts)-1].Sub(ts[len(ts)-2])
}

// run executes the sweep once through the harness entry point users
// call, and digests its model output.
func (r *sweepRun) run() (sweepOutput, error) {
	var out sweepOutput
	var buf bytes.Buffer
	if r.spec.observed {
		res, err := r.h.FigFaultWith(r.spec.designs, r.spec.rates)
		if err != nil {
			return out, err
		}
		out.rows = res.PerRun
		if err := harness.WriteFigFaultCSV(&buf, res); err != nil {
			return out, err
		}
	} else {
		res, err := r.h.Fig8()
		if err != nil {
			return out, err
		}
		out.rows, out.fig8 = res.PerRun, res
		for _, t := range []*metrics.Table{res.IPC, res.HBM, res.DRAM, res.Energy} {
			if err := harness.WriteTableCSV(&buf, t); err != nil {
				return out, err
			}
		}
	}
	if err := harness.WriteRunsCSV(&buf, out.rows); err != nil {
		return out, err
	}
	sum := sha256.Sum256(buf.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// close releases the sweep's journal.
func (r *sweepRun) close() error {
	if r.journal == nil {
		return nil
	}
	return r.journal.Close()
}

// checkRows checks that every cell simulated exactly its requested
// accesses and that the sweep tracker saw every cell complete.
func (r *sweepRun) checkRows(o *ops, rows []harness.RunResult) {
	short := 0
	for _, row := range rows {
		if row.CPU.Accesses != benchAccesses {
			short++
		}
	}
	o.many(len(rows), short, "cells with accesses != requested")
	snap := r.h.Obs.Snapshot()
	o.check(snap.Done == uint64(len(r.cells)) && snap.Failed == 0,
		"%s: sweep tracker saw %d done, %d failed of %d cells", r.spec.name, snap.Done, snap.Failed, len(r.cells))
}

// runSweep measures one sweep workload: repeated sweeps for the
// measured duration (-trace 0), or one untraced and one traced pass over
// the same cells (-trace 1).
func runSweep(e *env, s sweepSpec, traced bool) error {
	if traced {
		return tracedSweep(e, s)
	}
	var setups, tput, lat []float64
	var cells int
	digest := ""
	measured := 0.0
	for rep := 0; rep < 2 || measured < e.seconds; rep++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("sweep-%d", rep))
		var r *sweepRun
		for i := 0; i < setupsPerSweep; i++ {
			if r != nil {
				e.ops.do(r.close(), "journal close")
			}
			runtime.GC() // every set-up starts from the same heap state
			t0 := time.Now()
			var err error
			if r, err = s.setup(dir); err != nil {
				return fmt.Errorf("%s setup: %w", s.name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		t1 := time.Now()
		out, err := r.run()
		wall := time.Since(t1).Seconds()
		measured += wall
		if !e.ops.do(err, s.name+" sweep") {
			e.ops.many(len(r.cells), len(r.cells), "cells in a failed sweep")
			r.close()
			continue
		}
		e.ops.many(len(r.cells), 0, "cells")
		r.checkRows(e.ops, out.rows)
		if digest == "" {
			digest = out.digest
		}
		e.ops.check(out.digest == digest, "%s: model digest %s differs from the run's first sweep %s", s.name, out.digest, digest)
		e.ops.do(r.close(), "journal close")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		tput = append(tput, float64(len(r.cells)*benchAccesses)/wall/1e6)
		cells += len(r.cells)
		lat = append(lat, cellLatencies(r.completions)...)
	}
	fmt.Printf("model digest: %s\n", digest)
	fmt.Printf("per-sweep Maccess/s: %.3f\n", tput)
	e.ops.check(len(lat) >= minSamplesFor(90), "%s: %d cell latencies, p90 needs %d", s.name, len(lat), minSamplesFor(90))
	e.set("setup_s", median(setups), "s")
	e.set("maccess_per_s", float64(cells*benchAccesses)/measured/1e6, "Maccess/s")
	e.set("results_per_s", float64(cells)/measured, "1/s")
	e.set("job_p50_ms", percentile(lat, 50), "ms")
	e.set("job_p90_ms", percentile(lat, 90), "ms")
	if p, ok := highestPercentile(len(lat)); ok {
		fmt.Printf("cell latency: n=%d p50=%.3f ms p%g=%.3f ms over %d sweeps; deciles (ms):%s\n", len(lat), percentile(lat, 50), p, percentile(lat, p), len(tput), deciles(lat))
	}
	return nil
}

// tracedSweep runs the sweep once untraced, with only the program's own
// hooks, then once traced: every cell again through harness.Run with a
// recording design wrapper, followed by replays of each layer's recorded
// inputs. The traced cells must reproduce the untraced rows.
func tracedSweep(e *env, s sweepSpec) error {
	jt := obs.NewJobTrace(s.name)
	root := jt.Start(0, s.name)
	lay := newLayerSums()

	r, err := s.setup(filepath.Join(e.tmp, "untraced"))
	if err != nil {
		return fmt.Errorf("%s setup: %w", s.name, err)
	}
	up := jt.Start(root, "untraced")
	if r.journal != nil {
		r.journal.TraceAppend = func(cell string) func(error) {
			id := jt.Start(up, "ckpt/append")
			return func(err error) {
				if err != nil {
					jt.Fail(id, err)
					return
				}
				jt.End(id)
			}
		}
	}
	out, err := r.run()
	untraced := jt.End(up)
	if !e.ops.do(err, s.name+" untraced sweep") {
		return writeTraced(e, jt, root, lay, nil, 0)
	}
	r.checkRows(e.ops, out.rows)
	fmt.Printf("model digest: %s\n", out.digest)
	if r.journal != nil {
		e.set("ckpt.fsyncs", float64(r.journal.Fsyncs()), "count")
		e.ops.do(r.journal.Close(), "journal close")
	}
	var appends []float64
	for _, sp := range jt.Spans() {
		if sp.Name == "ckpt/append" {
			appends = append(appends, ms(sp.Dur))
		}
	}
	e.set("ckpt.append_ms_p50", percentile(appends, 50), "ms")
	e.set("runner.tail_s", tail(r.completions).Seconds(), "s")
	var epochs, dropped, retired, ecc uint64
	for _, row := range out.rows {
		if row.Telemetry != nil {
			epochs += uint64(len(row.Telemetry.Timeline))
			dropped += row.Telemetry.EventsDropped
		}
		retired += row.Counters.FramesRetired
		ecc += row.Counters.ECCCorrected
	}
	e.set("telemetry.epochs", float64(epochs), "count")
	e.set("telemetry.events_dropped", float64(dropped), "count")
	e.set("faults.frames_retired", float64(retired), "count")
	e.set("faults.ecc_corrected", float64(ecc), "count")
	e.set("alert.transitions", float64(r.mon.Total()), "count")
	setSim(e, out.rows)

	tp := jt.Start(root, "traced")
	h := newHarness()
	if s.observed {
		h.Alerts = alert.NewMonitor(alert.Defaults())
		h.TelemetryEpoch = telemetryEpoch
	}
	cells := s.cells(h)
	traced := make([]harness.RunResult, len(cells))
	_, err = runner.Map(benchWorkers, cells, func(i int, c sweepCell) (struct{}, error) {
		traced[i] = tracedCell(e, h, c, out.rows, jt, tp, lay)
		return struct{}{}, nil
	})
	e.ops.do(err, s.name+" traced cells")
	tracedWall := jt.End(tp)
	if out.fig8 != nil {
		checkFig8Tables(e.ops, out.fig8, traced, len(h.Benchmarks()))
	}
	e.ops.check(h.Alerts.Total() == r.mon.Total(), "%s: traced cells made %d alert transitions, the untraced sweep %d",
		s.name, h.Alerts.Total(), r.mon.Total())
	return writeTraced(e, jt, root, lay, nil, tracedWall.Seconds()/untraced.Seconds()-1)
}

// tracedCell runs one cell through harness.Run with a recording design
// wrapper, checks it against the untraced row, then replays the cell's
// recorded layer inputs: trace generation, the SRAM hierarchy and the
// design on a fresh build.
func tracedCell(e *env, h *harness.Harness, c sweepCell, want []harness.RunResult, jt *obs.JobTrace, parent obs.SpanID, lay *layerSums) harness.RunResult {
	name := fmt.Sprintf("%s@%s/%s", c.design, strconv.FormatFloat(c.rate, 'g', -1, 64), c.bench.Profile.Name)
	cs := jt.Start(parent, "cell/"+name)
	defer jt.End(cs)
	sys := c.system(h)
	mem, err := harness.Build(c.design, sys)
	if !e.ops.do(err, "build "+name) {
		return harness.RunResult{}
	}
	rec := newRecorder(mem)
	rs := jt.Start(cs, "run")
	got, err := h.Run(sys, rec.wrapped(), c.bench)
	runDur := jt.End(rs)
	if !e.ops.do(err, "traced cell "+name) {
		return got
	}
	e.ops.check(got.CPU.Accesses == benchAccesses, "%s: simulated %d accesses, want %d", name, got.CPU.Accesses, benchAccesses)
	if c.want >= 0 && c.want < len(want) {
		e.ops.check(sameRow(got, want[c.want]), "%s: traced row differs from the untraced sweep's", name)
	}
	if insp, ok := mem.(hmm.Inspector); ok {
		e.ops.do(insp.CheckInvariants(), name+" invariants")
	}

	p := c.bench.Profile
	if p.Seed == 0 {
		p.Seed = runner.Seed(mem.Name(), p.Name)
	}
	acc, traceDur, err := replayTrace(jt, rs, p, benchAccesses)
	if !e.ops.do(err, name+" trace replay") {
		return got
	}
	cr, err := replayCache(jt, rs, sys, acc)
	if !e.ops.do(err, name+" cache replay") {
		return got
	}
	e.ops.check(cr.misses == got.CPU.LLCMisses && cr.writebacks == got.CPU.Writebacks,
		"%s: cache replay gave %d misses/%d writebacks, the cell %d/%d", name, cr.misses, cr.writebacks, got.CPU.LLCMisses, got.CPU.Writebacks)
	dr, err := replayDesign(jt, rs, c.design, sys, c.bench.Profile.Name, rec.calls, h.TelemetryEpoch)
	if !e.ops.do(err, name+" design replay") {
		return got
	}
	e.ops.check(dr.counters == got.Counters, "%s: design replay counters differ from the cell's", name)
	lay.add(string(c.design), cellCost{
		accesses: got.CPU.Accesses, misses: got.CPU.LLCMisses, calls: uint64(len(rec.calls)),
		run: runDur, trace: traceDur, cache: cr.dur, design: dr.dur,
	})
	return got
}

// sameRow compares two runs by their runs.csv rows.
func sameRow(a, b harness.RunResult) bool {
	var x, y bytes.Buffer
	if harness.WriteRunsCSV(&x, []harness.RunResult{a}) != nil || harness.WriteRunsCSV(&y, []harness.RunResult{b}) != nil {
		return false
	}
	return bytes.Equal(x.Bytes(), y.Bytes())
}

// checkFig8Tables recomputes Figure 8's normalised "All" column from
// the traced cells (baseline first, then designs in figure order) and
// checks it against the untraced sweep's tables: this covers the no-HBM
// baseline cells, which Fig8 does not return as rows.
func checkFig8Tables(o *ops, want *harness.Fig8Result, traced []harness.RunResult, nb int) {
	base, runs := traced[:nb], traced[nb:]
	for di, d := range harness.Fig8Designs {
		var ipc, hbm, dram, pj []float64
		for bi := 0; bi < nb; bi++ {
			r, b := runs[di*nb+bi], base[bi]
			ipc = append(ipc, r.CPU.IPC()/b.CPU.IPC())
			hbm = append(hbm, float64(r.HBMBytes)/float64(b.DRAMBytes))
			dram = append(dram, float64(r.DRAMBytes)/float64(b.DRAMBytes))
			pj = append(pj, r.Energy.TotalPJ()/b.Energy.TotalPJ())
		}
		gm, err := metrics.Geomean(ipc)
		o.check(err == nil &&
			tableAll(want.IPC, string(d)) == gm &&
			tableAll(want.HBM, string(d)) == metrics.Mean(hbm) &&
			tableAll(want.DRAM, string(d)) == metrics.Mean(dram) &&
			tableAll(want.Energy, string(d)) == metrics.Mean(pj),
			"fig8 %s: tables recomputed from the traced cells differ from the untraced sweep's", d)
	}
}

// tableAll returns a design's "All" column value.
func tableAll(t *metrics.Table, design string) float64 {
	for _, row := range t.Rows {
		if row.Name == design {
			return row.Values["All"]
		}
	}
	return -1
}

// setSim reports the sweep's exact model counts.
func setSim(e *env, rows []harness.RunResult) {
	var cycles, misses, hbm, dram uint64
	for _, r := range rows {
		cycles += r.CPU.Cycles
		misses += r.CPU.LLCMisses
		hbm += r.HBMBytes
		dram += r.DRAMBytes
	}
	e.set("sim.cycles", float64(cycles), "exact_count")
	e.set("sim.llc_misses", float64(misses), "exact_count")
	e.set("sim.hbm_bytes", float64(hbm), "exact_count")
	e.set("sim.dram_bytes", float64(dram), "exact_count")
}
