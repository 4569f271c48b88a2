// Command perfbench is the repository's end-to-end and per-layer
// performance benchmark. It runs one workload per invocation:
//
//	fig8-sweep      harness.Fig8 at bench scale (98 cells, 2 workers)
//	fault-observed  harness.FigFaultWith with telemetry, alerts, a sweep
//	                tracker and a checkpoint journal on (84 cells)
//	replay-service  an in-process serve.Server driven by 2 closed-loop
//	                clients uploading BBT1 traces
//
// With -trace 0 it measures the end-to-end metrics for -seconds seconds
// with nothing but the program's own hooks attached. With -trace 1 it
// runs a fixed amount of the same work untraced and then traced, and
// reports per-layer costs measured from outside each layer: forwarding
// wrappers record every layer's inputs, and each layer's recorded inputs
// are replayed through its public functions in one timed block, because
// a clock read per call costs about as much as an average design call.
// The spans go to .bench_build/out/<workload>/spans.json (Chrome trace
// format) and the per-layer table to layers.md next to it.
//
// Every output the program produces is checked; each failed check, cell
// error, non-2xx response or failed job counts as a failed operation.
// The last line of standard output is the JSON result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Bench-scale harness settings shared by every workload.
const (
	benchScale    = 256
	benchAccesses = 120_000
	benchWorkers  = 2
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts operations attempted and failed across a run. Failures are
// also printed to standard error, up to a limit, so a failed run says why.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

const maxReportedFailures = 20

// check records one checked operation; ok false counts it as failed.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if o.failed <= maxReportedFailures {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		}
	}
	return ok
}

// do records one operation that failed when err is non-nil.
func (o *ops) do(err error, what string) bool {
	if err != nil {
		return o.check(false, "%s: %v", what, err)
	}
	return o.check(true, "%s", what)
}

// many records n operations of which failed failed.
func (o *ops) many(n, failed int, what string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += n
	o.failed += failed
	if failed > 0 && o.failed-failed < maxReportedFailures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %d of %d %s\n", failed, n, what)
	}
}

// fingerprint identifies the machine and toolchain a result was measured
// on; timings compare only between equal fingerprints.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machine() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// env is what every workload receives.
type env struct {
	seed    uint64
	seconds float64
	tmp     string // scratch directory, removed at exit
	out     string // per-workload output directory
	ops     *ops
	metrics map[string]metric
}

func (e *env) set(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(*env, bool) error{
	"fig8-sweep":     func(e *env, traced bool) error { return runSweep(e, fig8Spec, traced) },
	"fault-observed": func(e *env, traced bool) error { return runSweep(e, faultSpec, traced) },
	"replay-service": runService,
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig8-sweep, fault-observed or replay-service")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured duration of a -trace 0 run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	outRoot := flag.String("out", ".bench_build/out", "directory for span files, tables and results")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload fig8-sweep|fault-observed|replay-service -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	if err := benchmark(run, *workload, *seed, *seconds, *traceFlag == 1, *outRoot); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func benchmark(run func(*env, bool) error, workload string, seed uint64, seconds float64, traced bool, outRoot string) error {
	out := filepath.Join(outRoot, workload)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmpRoot := filepath.Join(outRoot, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: seed, seconds: seconds, tmp: tmp, out: out, ops: &ops{}, metrics: map[string]metric{}}
	fp := machine()
	if err := run(e, traced); err != nil {
		return err
	}
	if !traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		e.set("peak_rss_mib", rss, "MiB")
	}
	checkDeclared(e.ops, "BENCHMARK.json", traced, e.metrics)
	res := result{
		Correct:   e.ops.failed == 0,
		Attempted: e.ops.attempted,
		Failed:    e.ops.failed,
		Metrics:   e.metrics,
	}
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	record := struct {
		Workload    string      `json:"workload"`
		Seed        uint64      `json:"seed"`
		Mode        string      `json:"mode"`
		Fingerprint fingerprint `json:"fingerprint"`
		Result      result      `json:"result"`
	}{workload, seed, mode, fp, res}
	rec, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("result-%s-seed%d.json", mode, seed)), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fpLine, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint: %s\n", fpLine)
	printMetrics(e.metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkDeclared checks that the run reports exactly the metrics the
// benchmark definition declares for its mode (end_to_end untraced,
// per_layer traced), each in its declared unit.
func checkDeclared(o *ops, path string, traced bool, got map[string]metric) {
	b, err := os.ReadFile(path)
	if !o.do(err, "read "+path) {
		return
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if !o.do(json.Unmarshal(b, &def), "parse "+path) {
		return
	}
	want := def.EndToEnd
	if traced {
		want = def.PerLayer
	}
	bad := []string{}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			bad = append(bad, m.Name)
		}
	}
	o.check(len(bad) == 0 && len(got) == len(want), "reported %d metrics, %s declares %d; missing or in another unit: %v", len(got), path, len(want), bad)
}

// printMetrics lists every metric by name with its unit, one per line.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
