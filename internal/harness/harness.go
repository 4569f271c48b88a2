// Package harness defines one experiment per table and figure of the
// paper's evaluation: it builds systems, runs the Table II workloads on
// each design, normalizes results against the no-HBM baseline, and prints
// the same rows and series the paper reports.
//
// Experiments run on a capacity-scaled system (default 1/128 of Table I:
// HBM 8 MiB, DRAM 80 MiB, LLC 64 KiB) with workload footprints scaled by
// the same factor, so every footprint-to-capacity ratio — and therefore
// the caching, migration and footprint-pressure behaviour — matches the
// full-size machine while runs finish in seconds.
//
// Every sweep fans its (design, benchmark, config) matrix out across a
// bounded pool of worker goroutines (see internal/runner). Results are
// assembled in matrix order and each cell seeds its trace generator from a
// stable hash of the design and benchmark names, so a sweep's output is
// bit-identical at any Parallel setting.
//
// Cells whose front-end inputs are equal — the same resolved trace
// profile (seed included), access count and SRAM cache configuration,
// see frontKey — form a group that runs on one worker, one member after
// another. The first member that is not resumed from the checkpoint
// journal filters the trace through the cache hierarchy and records the
// verdicts on a tape (cpu.Record); the others replay the tape against
// their own design (cpu.Replay) instead of re-filtering, with
// byte-identical results. Everything else stays per cell: journal
// records, retries, sweep-tracker completions, alerts and logs. The
// fault sweep, Fig 6, Fig 7 and MAL share this way; sweeps that compare
// designs (Fig 8, the baselines, matrix mode, ReplaySweep) see traces
// seeded apart and run every cell alone.
package harness

import (
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Harness carries the experiment-wide knobs.
type Harness struct {
	Scale    uint64 // capacity scale factor vs Table I
	Accesses uint64 // memory references simulated per benchmark run
	Parallel int    // worker goroutines per sweep; <= 0 means one per CPU

	// Log is the structured run logger (per-cell progress records); nil
	// (the default) is silent. Handlers serialize concurrent records, so
	// workers log as cells finish — record order varies across runs, only
	// the assembled results are deterministic.
	Log *slog.Logger

	// Obs is the live sweep tracker served over /metrics; nil (the
	// default) disables observation. Sweeps declare their cells up front
	// and Run reports each completion — strictly after the cell's result
	// is final, so observation cannot perturb determinism.
	Obs *obs.Sweep

	// CellTimeout is the per-cell deadline for every sweep; a cell that
	// overruns it fails with a runner.CellError instead of hanging the
	// sweep. <= 0 (the default) disables the deadline.
	CellTimeout time.Duration

	// TelemetryEpoch enables per-run telemetry (latency histograms, event
	// tracing, and the counter time-series): every run gets a probe that
	// snapshots its counters every TelemetryEpoch demand accesses. 0 (the
	// default) disables telemetry entirely — designs see a nil probe.
	TelemetryEpoch uint64
	// TraceDepth is the event ring capacity per run; <= 0 picks
	// telemetry.DefaultTraceDepth. Only meaningful with TelemetryEpoch > 0.
	TraceDepth int

	// Retry is the per-cell retry budget for transient failures —
	// timeouts and errors marked runner.Transient. Permanent failures
	// (model invariant violations) never retry: re-running a
	// deterministic cell can only reproduce them. The zero value
	// disables retries.
	Retry runner.Retry

	// Interrupt, when closed, drains every sweep gracefully: in-flight
	// cells finish (and checkpoint), unstarted cells never run, and the
	// sweep returns an error matching runner.ErrInterrupted so callers
	// can exit with the resumable status instead of failing.
	Interrupt <-chan struct{}

	// Journal is the checkpoint journal (see internal/ckpt): when set,
	// every completed cell is recorded durably and cells completed by a
	// previous invocation are served from the journal instead of re-run.
	// The determinism contract is what makes the substitution sound — a
	// cell's result depends only on its identity, so replayed bytes and
	// re-computed bytes are identical.
	Journal *ckpt.Journal

	// Shard restricts sweeps to the cells this process owns (see
	// runner.Shard); the zero value owns everything. Shards partition
	// the flattened cell index space, so N shard runs cover each sweep
	// exactly once and `bbreport merge` can reassemble the unsharded
	// cell order.
	Shard runner.Shard

	// Alerts is the live SLO monitor (see internal/alert): when set,
	// every run feeds it epoch samples as telemetry fires and a final
	// sample at completion, so rule evaluation tracks the sweep in
	// flight. nil (the default) disables alerting at nil-check cost.
	// Like Obs and Spans, the monitor lives strictly outside the
	// simulation and never influences results.
	Alerts *alert.Monitor

	// Spans is the request-scoped span collector: when bbserve executes a
	// job it hands its per-job harness copy the job's trace here, and the
	// harness records one simulate span per design cell (plus checkpoint
	// append spans when a journal is attached) under SpanParent. nil (the
	// default) disables tracing at nil-check cost — spans, like Obs, live
	// strictly outside the simulation and never influence results.
	Spans      *obs.JobTrace
	SpanParent obs.SpanID

	// onRecord, when set, is called from the worker each time a run
	// records a front-end tape, so tests can count recordings.
	onRecord func()
}

// accBufPool holds trace ingestion buffers (see cpu.WithAccessBuffer),
// stored by pointer so Get/Put do not themselves allocate.
var accBufPool = sync.Pool{New: func() any {
	buf := make([]trace.Access, cpu.AccessBufferSize())
	return &buf
}}

// New returns a harness at the default reproduction scale.
func New() *Harness {
	return &Harness{Scale: 128, Accesses: 1_500_000}
}

// workers returns the sweep's worker-pool size.
func (h *Harness) workers() int {
	if h.Parallel > 0 {
		return h.Parallel
	}
	return runner.DefaultWorkers()
}

// System returns the scaled Table I configuration: memory capacities and
// the LLC shrink by Scale (preserving the LLC:HBM:DRAM ratios); the L1
// and L2 shrink to small fixed sizes that keep their filtering role.
func (h *Harness) System() config.System {
	sys := config.Default()
	if h.Scale <= 1 {
		return sys
	}
	sys.HBM.CapacityBytes /= h.Scale
	sys.DRAM.CapacityBytes /= h.Scale
	for i := range sys.Caches {
		sz := sys.Caches[i].SizeBytes / h.Scale
		min := uint64(sys.Caches[i].Ways) * sys.Caches[i].LineBytes * 4
		if sz < min {
			sz = min
		}
		sys.Caches[i].SizeBytes = sz
	}
	return sys
}

// Benchmarks returns the Table II set scaled to the harness.
func (h *Harness) Benchmarks() []trace.Benchmark {
	bs := trace.TableII()
	out := make([]trace.Benchmark, len(bs))
	for i, b := range bs {
		out[i] = b.Scale(h.Scale)
	}
	return out
}

// RunResult is one (design, benchmark) simulation outcome.
type RunResult struct {
	Design string
	Bench  string

	CPU      cpu.Result
	Counters hmm.Counters
	Energy   energy.Breakdown

	HBMBytes  uint64 // total HBM bus traffic
	DRAMBytes uint64 // total off-chip DRAM bus traffic

	// Telemetry is the run's time-resolved record; nil unless the harness
	// ran with TelemetryEpoch > 0.
	Telemetry *RunTelemetry
}

// Run simulates one benchmark on one memory system built for sys.
//
// When the benchmark's profile carries no explicit seed, the trace
// generator is seeded from runner.Seed(design, benchmark) — the sweep
// determinism rule: a cell's stream depends only on what the cell *is*,
// never on when or where it ran.
//
// Run always filters the trace through a fresh SRAM hierarchy. Inside a
// sweep, cells whose front-end inputs are equal (see frontKey) share
// that work instead: they run back to back on one worker, the first one
// records the hierarchy's verdicts on a tape and the others replay it
// against their own design, with byte-identical results.
func (h *Harness) Run(sys config.System, mem hmm.MemSystem, b trace.Benchmark) (RunResult, error) {
	return h.runFront(nil, sys, mem, b)
}

// runFront is Run with front-end sharing: with a non-nil fe, the run
// replays fe's tape when it was recorded from this run's front-end
// inputs, and otherwise records a new one into fe.
func (h *Harness) runFront(fe *frontEnd, sys config.System, mem hmm.MemSystem, b trace.Benchmark) (RunResult, error) {
	p := resolveProfile(mem.Name(), b)
	gen, err := trace.NewSynthetic(p)
	if err != nil {
		return RunResult{}, err
	}
	key := ""
	if fe != nil {
		key = h.frontKey(sys, p)
	}
	return h.runStream(sys, mem, p.Name, &trace.Limit{S: gen, N: h.Accesses}, p.Seed, fe, key)
}

// resolveProfile returns b's trace profile as Run generates it for a
// design named name: an unseeded profile takes the cell-identity seed.
func resolveProfile(name string, b trace.Benchmark) trace.Profile {
	p := b.Profile
	if p.Seed == 0 {
		p.Seed = runner.Seed(name, p.Name)
	}
	return p
}

// frontKey names everything a run's front end depends on: the resolved
// trace profile (seed included), the access cap, and the SRAM hierarchy
// configuration. Two runs with equal keys read the same trace and get
// the same hierarchy verdicts, whatever their memory designs.
func (h *Harness) frontKey(sys config.System, p trace.Profile) string {
	return fmt.Sprintf("%#v|%d|%#v", p, h.Accesses, sys.Caches)
}

// frontKeys returns the frontKey of every benchmark in bs run on design
// d built for sys. It builds the design once to learn the name Run seeds
// traces from (Bumblebee's fixed-ratio variants rename themselves). A
// design that does not build gets empty keys, so its cells run alone and
// report the build error themselves.
func (h *Harness) frontKeys(d config.Design, sys config.System, bs []trace.Benchmark) []string {
	keys := make([]string, len(bs))
	mem, err := Build(d, sys)
	if err != nil {
		return keys
	}
	for i, b := range bs {
		keys[i] = h.frontKey(sys, resolveProfile(mem.Name(), b))
	}
	return keys
}

// frontEnd is one group's shared front end: a tape and the key of the
// inputs it was recorded from. Workers take one from frontPool per group
// and reuse its storage.
type frontEnd struct {
	key  string // "" until a recording completes
	tape cpu.Tape
}

var frontPool = sync.Pool{New: func() any { return new(frontEnd) }}

// getFrontEnd takes an empty front end from the pool; return it with
// frontPool.Put once its group is done.
func getFrontEnd() *frontEnd {
	fe := frontPool.Get().(*frontEnd)
	fe.key = ""
	return fe
}

// RunStream simulates one design over an externally supplied access
// stream — a replayed trace file (see internal/tracecodec) rather than
// a synthetic generator. When h.Accesses > 0 the replay is capped at
// that many accesses; otherwise the trace's length defines the run.
// The same determinism contract applies: the result is a pure function
// of (design, stream), so identical trace bytes produce identical
// results at any Parallel setting.
func (h *Harness) RunStream(design config.Design, bench string, st trace.Stream) (RunResult, error) {
	sys := h.System()
	mem, err := Build(design, sys)
	if err != nil {
		return RunResult{}, err
	}
	if h.Accesses > 0 {
		st = &trace.Limit{S: st, N: h.Accesses}
	}
	sp := h.Spans.Start(h.SpanParent, "simulate/"+string(design))
	r, err := h.runStream(sys, mem, bench, st, 0, nil, "")
	if err != nil {
		h.Spans.Fail(sp, err)
		return r, err
	}
	h.Spans.Annotate(sp, "accesses", strconv.FormatUint(r.CPU.Accesses, 10))
	h.Spans.End(sp)
	return r, nil
}

// ReplaySweep runs one recorded trace against every design in designs,
// fanning out across the harness worker pool like every other sweep.
// Each cell consumes its own stream, so open must return a fresh reader
// over the same trace bytes per call (reopen the file); it is called
// from worker goroutines and must be safe for concurrent use.
func (h *Harness) ReplaySweep(designs []config.Design, bench string, open func() (trace.Stream, error)) ([]RunResult, error) {
	cells := make([]cell, len(designs))
	for i, d := range designs {
		cells[i] = cell{
			ID:   cellID("replay", string(d), bench),
			Seed: runner.Seed(string(d), bench),
		}
	}
	return sweepCells(h, cells, 1, func(i int) (RunResult, error) {
		st, err := open()
		if err != nil {
			return RunResult{}, fmt.Errorf("replay %s/%s: %w", designs[i], bench, err)
		}
		r, err := h.RunStream(designs[i], bench, st)
		if err != nil {
			return RunResult{}, err
		}
		h.log("replay", "design", r.Design, "bench", bench, "ipc", r.CPU.IPC())
		return r, nil
	})
}

// runStream is the shared back half of Run and RunStream: it attaches
// fault injection and telemetry, feeds the stream through the cpu model,
// and assembles the result. seed is recorded in failure messages for
// replayability (0 for external traces, whose identity is the trace file
// itself). With a nil fe the stream is filtered through a fresh
// hierarchy; otherwise the run replays fe's tape when it was recorded
// from inputs named key, and records a new tape into fe when not.
func (h *Harness) runStream(sys config.System, mem hmm.MemSystem, bench string, st trace.Stream, seed uint64, fe *frontEnd, key string) (RunResult, error) {
	var hier *cache.Hierarchy
	if fe == nil || fe.key != key {
		var err error
		if hier, err = cache.NewHierarchy(sys.Caches); err != nil {
			return RunResult{}, err
		}
	}
	// Fault injection follows the same cell-identity seeding rule: the
	// injector's schedule depends only on (design, benchmark) plus the
	// configured fault seed, never on scheduling. faults.New returns nil
	// when injection is disabled, leaving the device paths untouched.
	if sys.Faults.Enabled {
		dev := mem.Devices()
		dev.AttachFaults(faults.New(sys.Faults, dev.Geom.HBMPages(),
			runner.Seed("faults", mem.Name(), bench)))
	}
	// Telemetry is per-cell: each run owns one probe, and everything it
	// records is a pure function of the cell's access stream, so the
	// assembled sweep output stays byte-identical at any Parallel setting.
	var runTel *RunTelemetry
	var probe *telemetry.Probe
	cm := h.Alerts.StartCell(mem.Name(), bench)
	if h.TelemetryEpoch > 0 {
		probe = telemetry.NewProbe(h.TelemetryEpoch, h.TraceDepth)
		runTel = &RunTelemetry{Epoch: h.TelemetryEpoch, FreqMHz: sys.Core.FreqMHz}
		reporter, _ := mem.(hmm.StateReporter)
		probe.OnEpoch = func(access, cycle uint64) {
			pt := TimelinePoint{Access: access, Cycle: cycle, Counters: mem.Counters()}
			if reporter != nil {
				pt.State = reporter.TelemetryState()
				pt.HasState = true
			}
			runTel.Timeline = append(runTel.Timeline, pt)
			cm.ObserveEpoch(epochSample(pt))
		}
		mem.Devices().AttachTelemetry(probe)
	}
	// Trace ingestion buffers are pooled across cells (workers return them
	// when the cell finishes), so sweeps do not allocate one per cell. The
	// buffer is scratch space fully rewritten each batch — sharing cannot
	// leak state between cells.
	accBuf := accBufPool.Get().(*[]trace.Access)
	buf := cpu.WithAccessBuffer(*accBuf)
	var res cpu.Result
	var err error
	switch {
	case fe == nil:
		res, err = cpu.Run(sys.Core, hier, mem, st, buf)
	case hier == nil:
		res, err = cpu.Replay(sys.Core, mem, st, &fe.tape, buf)
	default:
		if h.onRecord != nil {
			h.onRecord()
		}
		fe.key = "" // the tape is incomplete until the recording succeeds
		if res, err = cpu.Record(sys.Core, hier, mem, st, &fe.tape, buf); err == nil {
			fe.key = key
		}
	}
	accBufPool.Put(accBuf)
	if err != nil {
		// Include the cell's replay identity: the seed pins the workload
		// and fault streams, the epoch pins the sampling cadence, so the
		// failure reproduces from the log alone.
		h.Obs.CellFailed(mem.Name(), bench, err)
		return RunResult{}, fmt.Errorf("%s/%s (%s): %w",
			mem.Name(), bench, runner.CellInfo(seed, h.TelemetryEpoch), err)
	}
	if runTel != nil {
		runTel.Lat = probe.Lat
		runTel.Events = probe.Tracer.Events()
		runTel.EventsTotal = probe.Tracer.Total()
		runTel.EventsDropped = probe.Tracer.Dropped()
	}
	dev := mem.Devices()
	hbm, ddr := dev.HBM.Stats(), dev.DRAM.Stats()
	e := energy.FromStats(hbm, ddr).WithStatic(
		dev.HBM.BackgroundEnergyPJ(res.Cycles),
		dev.DRAM.BackgroundEnergyPJ(res.Cycles))
	var lat *[telemetry.NumTiers]telemetry.Histogram
	if probe != nil {
		lat = &probe.Lat
	}
	cnt := mem.Counters()
	h.obsDone(mem.Name(), bench, res.Accesses, cnt, lat)
	rr := RunResult{
		Design:    mem.Name(),
		Bench:     bench,
		CPU:       res,
		Counters:  cnt,
		Energy:    e,
		HBMBytes:  hbm.TotalBytes(),
		DRAMBytes: ddr.TotalBytes(),
		Telemetry: runTel,
	}
	// The final feed evaluates the full rule set over the completed
	// cell — latency summaries included — so the monitor's firing set
	// for this cell is exactly what post-hoc analysis computes.
	cm.Done(runSample(rr), latencySamples(rr))
	return rr, nil
}

// RunDesign builds the named design and runs one benchmark on it.
func (h *Harness) RunDesign(design config.Design, b trace.Benchmark) (RunResult, error) {
	sys := h.System()
	mem, err := Build(design, sys)
	if err != nil {
		return RunResult{}, err
	}
	return h.Run(sys, mem, b)
}

// baselineIPC runs the no-HBM baseline for every benchmark once and
// caches the IPCs and traffic used for normalization.
type baseline struct {
	ipc   map[string]float64
	bytes map[string]uint64 // DRAM traffic of the no-HBM run
	pj    map[string]float64
}

func (h *Harness) runBaseline(bs []trace.Benchmark) (*baseline, error) {
	cells := make([]cell, len(bs))
	for i, b := range bs {
		cells[i] = cell{
			ID:   cellID("baseline", string(config.DesignNoHBM), b.Profile.Name),
			Seed: runner.Seed(string(config.DesignNoHBM), b.Profile.Name),
		}
	}
	// The baseline is normalization input for every design's rows, so it
	// always runs in full — sharding partitions only the design matrix.
	hb := *h
	hb.Shard = runner.Shard{}
	runs, err := sweepCells(&hb, cells, 1, func(i int) (RunResult, error) {
		b := bs[i]
		r, err := h.RunDesign(config.DesignNoHBM, b)
		if err != nil {
			return RunResult{}, fmt.Errorf("baseline %s: %w", b.Profile.Name, err)
		}
		h.log("baseline", "bench", b.Profile.Name, "ipc", r.CPU.IPC(), "mpki", r.CPU.MPKI())
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := &baseline{
		ipc:   make(map[string]float64),
		bytes: make(map[string]uint64),
		pj:    make(map[string]float64),
	}
	for i, r := range runs {
		name := bs[i].Profile.Name
		out.ipc[name] = r.CPU.IPC()
		out.bytes[name] = r.DRAMBytes
		out.pj[name] = r.Energy.TotalPJ()
	}
	return out, nil
}
