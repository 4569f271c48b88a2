package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

const (
	serviceClients = 2
	// maxJobsPerSecond sizes the trace pool: the new jobs a measured run
	// may execute per second (20 to 50 on a 2-core Xeon, whose speed
	// varies with its other tenants' load). A run that uses up every
	// distinct pair ends early.
	maxJobsPerSecond = 45
	// tracedJobs is the fixed number of new jobs (three per design) in
	// each pass of a traced run.
	tracedJobs = 27
	// serverStarts is how many times a run starts the service to take
	// the median set-up time.
	serverStarts = 11
)

// upload is one synthesised trace, BBT1-encoded in a file. Uploads are
// streamed from disk so the clients' inputs do not sit in the heap the
// service's garbage collector scans.
type upload struct {
	bench string
	path  string
}

// read returns the upload's bytes.
func (u upload) read() ([]byte, error) { return os.ReadFile(u.path) }

// traceCount is how many distinct traces a run of the given length
// uploads: enough that new job k's pair (trace k mod n, design k mod 9)
// stays distinct, and n is coprime with the nine designs so the first
// 9n pairs are all distinct.
func traceCount(seconds float64) int {
	n := int(math.Ceil(seconds * maxJobsPerSecond / float64(len(harness.AllDesigns))))
	if n < tracedJobs {
		n = tracedJobs
	}
	for n%3 == 0 {
		n++
	}
	return n
}

// prepareTraces synthesises n uploads from Table II profiles under the
// seed argument. It returns the time spent generating accesses (the
// trace layer's cost here), apart from encoding.
func prepareTraces(dir string, seed uint64, n int) ([]upload, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	bs := newHarness().Benchmarks()
	out := make([]upload, n)
	acc := make([]trace.Access, benchAccesses)
	var gen time.Duration
	for t := range out {
		p := bs[t%len(bs)].Profile
		p.Seed = runner.SeedFold(seed, uint64(t))
		t0 := time.Now()
		g, err := trace.NewSynthetic(p)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < len(acc); {
			i += g.NextBatch(acc[i:min(i+replayBatch, len(acc))])
		}
		gen += time.Since(t0)
		var buf bytes.Buffer
		w := tracecodec.NewAccessWriter(tracecodec.NewWriter(&buf, tracecodec.Format{Kind: tracecodec.KindBinary}))
		for _, a := range acc {
			if err := w.Write(a); err != nil {
				return nil, 0, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, 0, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%03d-%s.bbt1", t, p.Name))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, 0, err
		}
		out[t] = upload{bench: p.Name, path: path}
	}
	return out, gen, nil
}

// newPair returns new job k's trace index and design among n traces.
func newPair(k, n int) (int, config.Design) {
	return k % n, harness.AllDesigns[k%len(harness.AllDesigns)]
}

// liveServer is an in-process serve.Server behind a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	dir  string
	done chan error
}

// startServer starts the service on dir and returns once /readyz
// answers 200: the service's set-up.
func startServer(dir string) (*liveServer, error) {
	h := newHarness()
	h.Parallel = 1 // one design per job: a single cell
	s := &serve.Server{Harness: h, DataDir: dir, Workers: benchWorkers}
	if err := s.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain(context.Background())
		return nil, err
	}
	l := &liveServer{srv: s, hs: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(l.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Now().After(deadline) {
			l.stop()
			return nil, fmt.Errorf("service not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the job fleet, shuts the listener down and waits for the
// serving goroutine to exit.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := l.srv.Drain(ctx)
	if serr := l.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// jobRecord is one executed job as a client saw it.
type jobRecord struct {
	k       int
	id      string
	csv     []byte
	latency time.Duration // POST to terminal SSE event plus runs.csv fetch
	submit  time.Duration // POST round trip
	fetch   time.Duration // runs.csv GET
	phases  map[string]time.Duration
}

// load is one closed-loop client run against a server.
type load struct {
	e       *env
	base    string
	uploads []upload
	hc      *http.Client
	traced  bool // fetch each job's service_trace.json
	maxJobs int  // new jobs k >= maxJobs are never started
	stop    func(executed int64, elapsed time.Duration) bool

	next     atomic.Int64 // next new pair
	executed atomic.Int64

	mu   sync.Mutex
	jobs []*jobRecord
	hits []time.Duration
}

// run drives serviceClients closed-loop clients until stop says so and
// returns the wall time.
func (ld *load) run() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(runner.SeedFold(ld.e.seed, uint64(1000+c)))))
			for !ld.stop(ld.executed.Load(), time.Since(t0)) {
				k := int(ld.next.Add(1) - 1)
				if k >= ld.maxJobs {
					return
				}
				if !ld.newJob(k) {
					continue
				}
				ld.hit(rng)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// newJob submits pair k, waits for it on the SSE stream and fetches its
// runs.csv.
func (ld *load) newJob(k int) bool {
	o := ld.e.ops
	ti, d := newPair(k, len(ld.uploads))
	u := ld.uploads[ti]
	t0 := time.Now()
	st, code, err := ld.submit(u, d)
	submit := time.Since(t0)
	if !o.do(err, "submit") || !o.check(code == http.StatusAccepted && !st.Cached, "new job %d (%s): HTTP %d cached=%v", k, d, code, st.Cached) {
		return false
	}
	final, accesses, err := ld.wait(st.ID)
	if !o.do(err, "events "+st.ID) || !o.check(final == "done", "job %s ended %q", st.ID, final) {
		return false
	}
	t1 := time.Now()
	csv, err := ld.get(st.ID, "runs.csv")
	fetch := time.Since(t1)
	latency := time.Since(t0)
	if !o.do(err, "fetch runs.csv") {
		return false
	}
	o.check(accesses == benchAccesses, "job %s simulated %d accesses, want %d", st.ID, accesses, benchAccesses)
	j := &jobRecord{k: k, id: st.ID, csv: csv, latency: latency, submit: submit, fetch: fetch}
	if ld.traced {
		j.phases, err = ld.phases(st.ID)
		o.do(err, "service trace "+st.ID)
	}
	ld.mu.Lock()
	ld.jobs = append(ld.jobs, j)
	ld.mu.Unlock()
	ld.executed.Add(1)
	return true
}

// hit re-submits one earlier pair chosen across the whole history and
// checks that the cached result comes back unchanged.
func (ld *load) hit(rng *rand.Rand) {
	o := ld.e.ops
	ld.mu.Lock()
	j := ld.jobs[rng.Intn(len(ld.jobs))]
	ld.mu.Unlock()
	ti, d := newPair(j.k, len(ld.uploads))
	t0 := time.Now()
	st, code, err := ld.submit(ld.uploads[ti], d)
	if !o.do(err, "hit submit") || !o.check(code == http.StatusOK && st.Cached && st.ID == j.id,
		"hit on %s: HTTP %d cached=%v id=%s", j.id, code, st.Cached, st.ID) {
		return
	}
	csv, err := ld.get(st.ID, "runs.csv")
	lat := time.Since(t0)
	if o.do(err, "hit fetch runs.csv") && o.check(bytes.Equal(csv, j.csv), "hit on %s: runs.csv differs from the first fetch", j.id) {
		ld.mu.Lock()
		ld.hits = append(ld.hits, lat)
		ld.mu.Unlock()
	}
}

func (ld *load) submit(u upload, d config.Design) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	q := url.Values{"design": {string(d)}, "bench": {u.bench}, "accesses": {fmt.Sprint(benchAccesses)}}
	f, err := os.Open(u.path)
	if err != nil {
		return st, 0, err
	}
	defer f.Close()
	resp, err := ld.hc.Post(ld.base+"/v1/jobs?"+q.Encode(), "application/octet-stream", f)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return st, resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return st, resp.StatusCode, json.Unmarshal(body, &st)
}

// wait follows the job's SSE stream to its end and returns the terminal
// state and the access count of the last progress event.
func (ld *load) wait(id string) (string, uint64, error) {
	resp, err := ld.hc.Get(ld.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	state := ""
	var accesses uint64
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			state = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && state == "simulating" {
			var ev serve.ProgressEvent
			if err := json.Unmarshal([]byte(v), &ev); err != nil {
				return "", 0, err
			}
			accesses = ev.Accesses
		}
	}
	return state, accesses, sc.Err()
}

func (ld *load) get(id, name string) ([]byte, error) {
	resp, err := ld.hc.Get(ld.base + "/v1/jobs/" + id + "/files/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", name, resp.StatusCode)
	}
	return b, err
}

// phases reads the job's service_trace.json and returns the summed
// duration of its queue_wait, simulate and write spans.
func (ld *load) phases(id string) (map[string]time.Duration, error) {
	b, err := ld.get(id, serve.ServiceTraceName)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	out := map[string]time.Duration{}
	for _, ev := range doc.TraceEvents {
		name := ev.Name
		if strings.HasPrefix(name, "simulate/") {
			name = "simulate"
		}
		switch name {
		case "queue_wait", "simulate", "write":
			out[name] += time.Duration(ev.Dur * float64(time.Microsecond))
		}
	}
	for _, want := range []string{"queue_wait", "simulate", "write"} {
		if _, ok := out[want]; !ok {
			return out, fmt.Errorf("no %s span", want)
		}
	}
	return out, nil
}

// checkResults verifies every executed job's manifest, and checks the
// first job of each design against an in-process harness.RunStream over
// the same trace bytes.
func checkResults(e *env, srvDir string, uploads []upload, jobs []*jobRecord) {
	h := newHarness()
	seen := map[config.Design]bool{}
	for _, j := range jobs {
		dir := filepath.Join(srvDir, "runs", j.id)
		m, err := report.ReadManifest(dir)
		if e.ops.do(err, "read manifest "+j.id) {
			errs := m.Verify(dir)
			e.ops.check(len(errs) == 0, "manifest of %s: %v", j.id, errs)
		}
		ti, d := newPair(j.k, len(uploads))
		if seen[d] {
			continue
		}
		seen[d] = true
		body, err := uploads[ti].read()
		if !e.ops.do(err, "read trace") {
			continue
		}
		rd, err := tracecodec.Open(bytes.NewReader(body))
		if !e.ops.do(err, "open trace") {
			continue
		}
		r, err := h.RunStream(d, uploads[ti].bench, tracecodec.NewStream(rd))
		if !e.ops.do(err, "in-process RunStream") {
			continue
		}
		var want bytes.Buffer
		if e.ops.do(harness.WriteRunsCSV(&want, []harness.RunResult{r}), "write reference row") {
			e.ops.check(bytes.Equal(want.Bytes(), j.csv), "job %s (%s): service row differs from in-process RunStream", j.id, d)
		}
	}
}

// serverSetup starts the service serverStarts times, each on a fresh
// state directory, and keeps the last one running. It returns the
// median set-up time.
func serverSetup(e *env, name string) (*liveServer, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", name, i))
		if err := settle(e.tmp); err != nil {
			return nil, 0, err
		}
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		l, err := startServer(dir)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == serverStarts-1 {
			fmt.Printf("service set-up: median %.3f ms, min %.3f ms, max %.3f ms over %d starts\n",
				median(setups)*1e3, percentile(setups, 0)*1e3, percentile(setups, 100)*1e3, len(setups))
			return l, median(setups), nil
		}
		if err := l.stop(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
}

// runService measures the replay service: closed-loop load for the
// measured duration (-trace 0), or a fixed number of jobs untraced, then
// traced, then replayed layer by layer in process (-trace 1).
func runService(e *env, traced bool) error {
	n := tracedJobs
	if !traced {
		n = traceCount(e.seconds)
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	if traced {
		uploads, genDur, err := prepareTraces(filepath.Join(e.tmp, "uploads"), e.seed, n)
		if err != nil {
			return err
		}
		return tracedService(e, hc, uploads, genDur)
	}
	// Set up before preparing the inputs, so set-up time does not depend
	// on the heap and page cache the input preparation leaves behind.
	l, setup, err := serverSetup(e, "state")
	if err != nil {
		return err
	}
	uploads, _, err := prepareTraces(filepath.Join(e.tmp, "uploads"), e.seed, n)
	if err != nil {
		e.ops.do(l.stop(), "service drain")
		return err
	}
	// A run that has used up every distinct pair ends early.
	ld := &load{e: e, base: l.base, uploads: uploads, hc: hc, maxJobs: len(uploads) * len(harness.AllDesigns)}
	ld.stop = func(executed int64, elapsed time.Duration) bool {
		return executed >= int64(minSamplesFor(90)) && elapsed.Seconds() >= e.seconds
	}
	wall := ld.run()
	e.ops.do(l.stop(), "service drain")
	checkResults(e, l.dir, uploads, ld.jobs)

	var lat []float64
	for _, j := range ld.jobs {
		lat = append(lat, ms(j.latency))
	}
	executed := len(ld.jobs)
	e.ops.check(executed >= minSamplesFor(90), "%d executed jobs, p90 needs %d", executed, minSamplesFor(90))
	e.set("setup_s", setup, "s")
	e.set("results_per_s", float64(executed+len(ld.hits))/wall.Seconds(), "1/s")
	e.set("maccess_per_s", float64(executed*benchAccesses)/wall.Seconds()/1e6, "Maccess/s")
	e.set("job_p50_ms", percentile(lat, 50), "ms")
	e.set("job_p90_ms", percentile(lat, 90), "ms")
	if p, ok := highestPercentile(len(lat)); ok {
		fmt.Printf("job latency: n=%d p50=%.3f ms p%g=%.3f ms; %d hits; deciles (ms):%s\n", len(lat), percentile(lat, 50), p, percentile(lat, p), len(ld.hits), deciles(lat))
	}
	// Delete the run's state now and commit the deletion, so the next
	// run does not start under this one's file-system work.
	for _, dir := range []string{l.dir, filepath.Dir(uploads[0].path)} {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return settle(e.tmp)
}

// settle commits the file system's pending metadata changes by syncing
// dir: the service's set-up creates directories, and a set-up timed
// behind the journal work of earlier deletions (and their discards)
// would measure that work instead.
func settle(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// tracedService runs tracedJobs new jobs (each followed by a hit) on a
// fresh service untraced, then again on another fresh service while also
// fetching every job's service_trace.json, and finally replays the
// traced pass's jobs layer by layer in process.
func tracedService(e *env, hc *http.Client, uploads []upload, genDur time.Duration) error {
	jt := obs.NewJobTrace("replay-service")
	root := jt.Start(0, "replay-service")
	lay := newLayerSums()

	pass := func(name string, traced bool) (*load, time.Duration, float64, error) {
		sp := jt.Start(root, name)
		defer jt.End(sp)
		l, _, err := serverSetup(e, name)
		if err != nil {
			return nil, 0, 0, err
		}
		ld := &load{e: e, base: l.base, uploads: uploads, hc: hc, traced: traced, maxJobs: tracedJobs}
		ld.stop = func(int64, time.Duration) bool { return false }
		wall := ld.run()
		e.ops.do(l.stop(), "service drain")
		checkResults(e, l.dir, uploads, ld.jobs)
		mib, err := dirMiB(l.dir)
		return ld, wall, mib, err
	}
	_, untraced, _, err := pass("untraced", false)
	if err != nil {
		return err
	}
	ld, tracedWall, dataMiB, err := pass("traced", true)
	if err != nil {
		return err
	}

	var submit, fetch, hits []float64
	phases := map[string][]float64{}
	for _, j := range ld.jobs {
		submit = append(submit, ms(j.submit))
		fetch = append(fetch, ms(j.fetch))
		for k, d := range j.phases {
			phases[k] = append(phases[k], ms(d))
		}
	}
	for _, d := range ld.hits {
		hits = append(hits, ms(d))
	}
	e.set("serve.submit_ms", median(submit), "ms")
	e.set("serve.fetch_ms", median(fetch), "ms")
	e.set("serve.hit_ms", median(hits), "ms")
	e.set("serve.queue_wait_ms", median(phases["queue_wait"]), "ms")
	e.set("serve.simulate_ms", median(phases["simulate"]), "ms")
	e.set("serve.write_ms", median(phases["write"]), "ms")
	e.set("serve.data_mib", dataMiB, "MiB")

	lp := jt.Start(root, "layers")
	sort.Slice(ld.jobs, func(a, b int) bool { return ld.jobs[a].k < ld.jobs[b].k })
	var rows []cpu.Result
	for _, j := range ld.jobs {
		if r, ok := tracedJob(e, jt, lp, uploads, j, lay); ok {
			rows = append(rows, r)
		}
	}
	jt.End(lp)
	var cycles, misses uint64
	for _, r := range rows {
		cycles += r.Cycles
		misses += r.LLCMisses
	}
	hbm, dram := serviceBytes(e, ld.jobs)
	e.set("sim.cycles", float64(cycles), "exact_count")
	e.set("sim.llc_misses", float64(misses), "exact_count")
	e.set("sim.hbm_bytes", float64(hbm), "exact_count")
	e.set("sim.dram_bytes", float64(dram), "exact_count")

	err = writeTraced(e, jt, root, lay, []string{
		fmt.Sprintf("trace: synthesising the %d uploads (input preparation) took %.1f ns per access; the service decodes instead (tracecodec row).",
			len(uploads), float64(genDur)/float64(len(uploads)*benchAccesses)),
	}, tracedWall.Seconds()/untraced.Seconds()-1)
	// Trace generation is input preparation here, outside every job.
	e.set("trace.ns_per_access", float64(genDur)/float64(len(uploads)*benchAccesses), "ns")
	return err
}

// tracedJob replays one executed job in process: the whole cpu.Run over
// the decoded trace with a recording design wrapper, then the decoder,
// the SRAM hierarchy and the design alone over their recorded inputs.
func tracedJob(e *env, jt *obs.JobTrace, parent obs.SpanID, uploads []upload, j *jobRecord, lay *layerSums) (cpu.Result, bool) {
	ti, d := newPair(j.k, len(uploads))
	u := uploads[ti]
	name := fmt.Sprintf("job/%s/%s-%d", d, u.bench, ti)
	cs := jt.Start(parent, name)
	defer jt.End(cs)
	sys := newHarness().System()
	mem, err := harness.Build(d, sys)
	if !e.ops.do(err, "build "+name) {
		return cpu.Result{}, false
	}
	hier, err := cache.NewHierarchy(sys.Caches)
	if !e.ops.do(err, "hierarchy "+name) {
		return cpu.Result{}, false
	}
	body, err := u.read()
	if !e.ops.do(err, "read "+name) {
		return cpu.Result{}, false
	}
	rec := newRecorder(mem)
	rs := jt.Start(cs, "run")
	rd, err := tracecodec.Open(bytes.NewReader(body))
	if !e.ops.do(err, "open "+name) {
		return cpu.Result{}, false
	}
	res, err := cpu.Run(sys.Core, hier, rec.wrapped(), &trace.Limit{S: tracecodec.NewStream(rd), N: benchAccesses})
	runDur := jt.End(rs)
	if !e.ops.do(err, "run "+name) {
		return res, false
	}
	e.ops.check(res.Accesses == benchAccesses, "%s: %d accesses", name, res.Accesses)

	sp := jt.Start(rs, "tracecodec")
	acc := make([]trace.Access, benchAccesses)
	n := 0
	rd, err = tracecodec.Open(bytes.NewReader(body))
	if err == nil {
		st := tracecodec.NewStream(rd)
		for n < len(acc) {
			got := st.NextBatch(acc[n:min(n+replayBatch, len(acc))])
			if got == 0 {
				break
			}
			n += got
		}
		err = st.Err()
	}
	decodeDur := jt.End(sp)
	if !e.ops.do(err, name+" decode replay") || !e.ops.check(n == benchAccesses, "%s: decoded %d accesses", name, n) {
		return res, false
	}
	cr, err := replayCache(jt, rs, sys, acc)
	if !e.ops.do(err, name+" cache replay") {
		return res, false
	}
	e.ops.check(cr.misses == res.LLCMisses && cr.writebacks == res.Writebacks,
		"%s: cache replay gave %d misses/%d writebacks, the run %d/%d", name, cr.misses, cr.writebacks, res.LLCMisses, res.Writebacks)
	dr, err := replayDesign(jt, rs, d, sys, u.bench, rec.calls, 0)
	if !e.ops.do(err, name+" design replay") {
		return res, false
	}
	e.ops.check(dr.counters == mem.Counters(), "%s: design replay counters differ from the run's", name)
	lay.add(string(d), cellCost{
		accesses: res.Accesses, misses: res.LLCMisses, calls: uint64(len(rec.calls)),
		run: runDur, decode: decodeDur, cache: cr.dur, design: dr.dur,
	})
	return res, true
}

// serviceBytes sums the hbm_bytes and dram_bytes columns of the jobs'
// runs.csv rows.
func serviceBytes(e *env, jobs []*jobRecord) (hbm, dram uint64) {
	for _, j := range jobs {
		rows, err := csv.NewReader(bytes.NewReader(j.csv)).ReadAll()
		if !e.ops.do(err, "parse runs.csv") || !e.ops.check(len(rows) == 2, "runs.csv of %s has %d lines", j.id, len(rows)) {
			continue
		}
		for i, col := range rows[0] {
			v, err := strconv.ParseUint(rows[1][i], 10, 64)
			switch col {
			case "hbm_bytes":
				e.ops.do(err, "hbm_bytes")
				hbm += v
			case "dram_bytes":
				e.ops.do(err, "dram_bytes")
				dram += v
			}
		}
	}
	return hbm, dram
}

// dirMiB is the bytes on disk under dir, in MiB.
func dirMiB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}
