package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTransientClassification(t *testing.T) {
	base := errors.New("disk hiccup")
	if !IsTransient(Transient(base)) {
		t.Error("Transient-wrapped error not classified transient")
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Transient wrapper hides the underlying error from errors.Is")
	}
	if !IsTransient(fmt.Errorf("cell: %w", context.DeadlineExceeded)) {
		t.Error("timeout not classified transient")
	}
	if IsTransient(errors.New("invariant violated: duplicate residency")) {
		t.Error("plain error classified transient; invariant violations must fail fast")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}

// TestRetryTransient: a cell that fails transiently twice then succeeds
// consumes three attempts and the sweep reports no error.
func TestRetryTransient(t *testing.T) {
	var calls atomic.Int32
	var retries []string
	var mu sync.Mutex
	pol := Policy{
		Retry: Retry{MaxAttempts: 3},
		OnRetry: func(i, attempt int, err error) {
			mu.Lock()
			retries = append(retries, fmt.Sprintf("%d/%d", i, attempt))
			mu.Unlock()
		},
	}
	out, err := MapPolicy(2, pol, []int{7}, func(i, item int) (int, error) {
		if calls.Add(1) < 3 {
			return 0, Transient(errors.New("flaky"))
		}
		return item * 2, nil
	})
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if out[0] != 14 {
		t.Fatalf("out[0] = %d, want 14", out[0])
	}
	if calls.Load() != 3 {
		t.Fatalf("cell ran %d times, want 3", calls.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retries) != 2 || retries[0] != "0/1" || retries[1] != "0/2" {
		t.Fatalf("OnRetry saw %v, want [0/1 0/2]", retries)
	}
}

// TestRetryPermanentFailsFast: non-transient errors never retry, whatever
// the budget says.
func TestRetryPermanentFailsFast(t *testing.T) {
	var calls atomic.Int32
	pol := Policy{Retry: Retry{MaxAttempts: 5}}
	_, err := MapPolicy(1, pol, []int{0}, func(i, item int) (int, error) {
		calls.Add(1)
		return 0, errors.New("model invariant violation")
	})
	if calls.Load() != 1 {
		t.Fatalf("permanent failure ran %d times, want 1", calls.Load())
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CellError", err)
	}
	if ce.Attempts != 1 || ce.Transient {
		t.Fatalf("CellError attempts=%d transient=%v, want 1/false", ce.Attempts, ce.Transient)
	}
}

// TestRetryBudgetExhausted: a persistently transient cell stops at
// MaxAttempts and the CellError carries the attempt count.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	pol := Policy{Retry: Retry{MaxAttempts: 3}}
	_, err := MapPolicy(1, pol, []string{"x"}, func(i int, s string) (int, error) {
		calls.Add(1)
		return 0, Transient(errors.New("still flaky"))
	})
	if calls.Load() != 3 {
		t.Fatalf("cell ran %d times, want 3", calls.Load())
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CellError", err)
	}
	if ce.Attempts != 3 || !ce.Transient {
		t.Fatalf("CellError attempts=%d transient=%v, want 3/true", ce.Attempts, ce.Transient)
	}
}

// TestBackoffDeterministic: the jittered backoff schedule is a pure
// function of (seed, cell, attempt) — two sweeps with the same seed sleep
// identically, a different seed jitters differently.
func TestBackoffDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		p := Policy{Seed: seed, Retry: Retry{Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}}
		var ds []time.Duration
		for attempt := 1; attempt <= 6; attempt++ {
			ds = append(ds, p.backoffFor(3, attempt))
		}
		return ds
	}
	a, b, c := schedule(42), schedule(42), schedule(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different backoff at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
		base := 100 * time.Millisecond << i
		if base > time.Second {
			base = time.Second
		}
		if a[i] < base || a[i] >= base+base/2+time.Millisecond {
			t.Fatalf("attempt %d backoff %v outside [base, 1.5*base] for base %v", i+1, a[i], base)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

// TestRetrySleepInterruptible: an interrupt arriving during a backoff
// sleep abandons the retry instead of waiting the delay out.
func TestRetrySleepInterruptible(t *testing.T) {
	interrupt := make(chan struct{})
	var slept atomic.Int32
	pol := Policy{
		Retry:     Retry{MaxAttempts: 10, Backoff: time.Hour},
		Interrupt: interrupt,
		sleep: func(d time.Duration, stop <-chan struct{}) {
			slept.Add(1)
			close(interrupt)
		},
	}
	start := time.Now()
	_, err := MapPolicy(1, pol, []int{0}, func(i, item int) (int, error) {
		return 0, Transient(errors.New("flaky"))
	})
	if time.Since(start) > 10*time.Second {
		t.Fatal("interrupted retry still waited the backoff out")
	}
	if slept.Load() != 1 {
		t.Fatalf("slept %d times, want 1", slept.Load())
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Attempts != 1 {
		t.Fatalf("err = %v, want CellError after 1 attempt", err)
	}
}

// TestInterruptDrains: closing the interrupt channel mid-sweep lets
// in-flight cells finish, skips the rest, and surfaces ErrInterrupted
// with an accurate done/skipped split.
func TestInterruptDrains(t *testing.T) {
	interrupt := make(chan struct{})
	items := make([]int, 64)
	var completed atomic.Int32
	gate := make(chan struct{})
	var once sync.Once
	out, err := MapPolicy(2, Policy{Interrupt: interrupt}, items, func(i, item int) (int, error) {
		once.Do(func() {
			close(interrupt) // interrupt while the first cells are in flight
			close(gate)
		})
		<-gate
		completed.Add(1)
		return i + 1, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("err %v is not *Interrupted", err)
	}
	if intr.Done != int(completed.Load()) {
		t.Fatalf("Interrupted.Done = %d, cells actually completed = %d", intr.Done, completed.Load())
	}
	if intr.Done+intr.Skipped != len(items) {
		t.Fatalf("done %d + skipped %d != %d cells", intr.Done, intr.Skipped, len(items))
	}
	if intr.Skipped == 0 {
		t.Fatal("interrupt drained nothing: every cell ran")
	}
	// Completed cells keep their results; the drain must not zero them.
	n := 0
	for i, v := range out {
		if v != 0 {
			n++
			if v != i+1 {
				t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
			}
		}
	}
	if n != intr.Done {
		t.Fatalf("%d non-zero outputs, want %d", n, intr.Done)
	}
}

// TestInterruptBeforeStart: a sweep entered with the interrupt already
// closed runs nothing.
func TestInterruptBeforeStart(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	var calls atomic.Int32
	_, err := MapPolicy(4, Policy{Interrupt: interrupt}, make([]int, 16), func(i, item int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if calls.Load() != 0 {
		t.Fatalf("%d cells ran under a pre-closed interrupt, want 0", calls.Load())
	}
	var intr *Interrupted
	if !errors.As(err, &intr) || intr.Skipped != 16 {
		t.Fatalf("err = %v, want Interrupted with 16 skipped", err)
	}
}

// TestMapTimeoutNoGoroutineLeak: an abandoned (timed-out) cell's
// goroutine exits as soon as its fn returns — the buffered completion
// channel means the send never blocks, so hung-then-released cells do not
// accumulate goroutines.
func TestMapTimeoutNoGoroutineLeak(t *testing.T) {
	release := make(chan struct{})
	before := runtime.NumGoroutine()
	_, err := MapTimeout(4, 20*time.Millisecond, make([]int, 8), func(i, item int) (int, error) {
		<-release // every cell hangs past the deadline
		return 0, nil
	})
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 8 {
		t.Fatalf("err = %v, want 8 timed-out cells", err)
	}
	close(release) // unblock the abandoned goroutines
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		// Allow slack for unrelated runtime goroutines; the 8 abandoned
		// workers are the signal.
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after release", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMapTimeoutNoStaleTimerTimeout: a cell completing in the same
// instant the deadline timer fires must not poison the worker's next
// cell with the stale expiry. Regression test for the undrained
// timer.Reset bug: cells that finish just under the deadline (even
// indices) are followed by instant cells (odd indices). The stale-expiry
// symptom is a timeout on an instant cell, and only that fails the test.
// A timeout on a near-deadline cell is the host oversleeping the 2 ms
// margin; such a run proves nothing either way, so it is retried, and if
// every attempt overshoots the test is skipped rather than passed.
func TestMapTimeoutNoStaleTimerTimeout(t *testing.T) {
	const attempts = 5
	timeout := 30 * time.Millisecond
	for try := 1; ; try++ {
		items := make([]int, 20)
		_, err := MapTimeout(1, timeout, items, func(i, item int) (int, error) {
			if i%2 == 0 {
				time.Sleep(timeout - 2*time.Millisecond) // finish a hair under the deadline
			}
			return i, nil
		})
		var errs Errors
		if err != nil && !errors.As(err, &errs) {
			t.Fatalf("MapTimeout: %v", err)
		}
		var overshot []int
		for _, e := range errs {
			if !errors.Is(e, context.DeadlineExceeded) {
				t.Fatalf("cell %d: unexpected error %v", e.Index, e.Err)
			}
			if e.Index%2 == 1 {
				t.Fatalf("instant cell %d timed out: stale timer expiry leaked from cell %d: %v",
					e.Index, e.Index-1, e.Err)
			}
			overshot = append(overshot, e.Index)
		}
		if len(overshot) == 0 {
			return
		}
		if try == attempts {
			t.Skipf("near-deadline cells overran on all %d attempts (host scheduling); property not exercised", attempts)
		}
		t.Logf("attempt %d: near-deadline cells %v overran the deadline (host scheduling); retrying", try, overshot)
	}
}

// TestShardPartition: every index is owned by exactly one shard, and the
// zero shard owns everything.
func TestShardPartition(t *testing.T) {
	const n = 3
	shards := make([]Shard, n)
	for k := 1; k <= n; k++ {
		shards[k-1] = Shard{K: k, N: n}
	}
	for i := 0; i < 100; i++ {
		owners := 0
		for _, s := range shards {
			if s.Owns(i) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("index %d owned by %d shards, want exactly 1", i, owners)
		}
		if !(Shard{}).Owns(i) {
			t.Fatalf("zero shard does not own index %d", i)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":    {},
		"1/1": {K: 1, N: 1},
		"2/3": {K: 2, N: 3},
	}
	for spec, want := range good {
		got, err := ParseShard(spec)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"0/3", "4/3", "x/3", "3", "1/0", "-1/2", "1/x"} {
		if _, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted", spec)
		}
	}
	if s := (Shard{K: 2, N: 3}).String(); s != "2/3" {
		t.Errorf("String() = %q, want 2/3", s)
	}
	if s := (Shard{}).String(); s != "" {
		t.Errorf("zero String() = %q, want empty", s)
	}
}

// TestMapPolicyDeterministicOutput: retries and interrupts aside, the
// policy path preserves the runner's core contract — output identical at
// any worker count, including under retry.
func TestMapPolicyDeterministicOutput(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	run := func(workers int) []int {
		var firstTry sync.Map
		out, err := MapPolicy(workers, Policy{Retry: Retry{MaxAttempts: 2}}, items,
			func(i, item int) (int, error) {
				// Every third cell fails transiently once.
				if i%3 == 0 {
					if _, seen := firstTry.LoadOrStore(i, true); !seen {
						return 0, Transient(errors.New("first attempt fails"))
					}
				}
				return item * item, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPolicyWeightScalesDeadline: an item of weight w gets w deadlines.
func TestPolicyWeightScalesDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	weights := []int{1, 50}
	pol := Policy{Timeout: 20 * time.Millisecond, Weight: func(i int) int { return weights[i] }}
	_, err := MapPolicy(2, pol, weights, func(i, w int) (int, error) {
		if w == 1 {
			<-release // hangs past its single deadline
			return 0, nil
		}
		time.Sleep(100 * time.Millisecond) // well inside 50 deadlines
		return w, nil
	})
	var agg Errors
	if !errors.As(err, &agg) || len(agg) != 1 || agg[0].Index != 0 || !errors.Is(agg[0], context.DeadlineExceeded) {
		t.Fatalf("err = %v, want only item 0 timed out", err)
	}
}

// TestPolicyDo: one cell run inline under the retry budget.
func TestPolicyDo(t *testing.T) {
	pol := Policy{Retry: Retry{MaxAttempts: 3}}
	calls := 0
	n, err := pol.Do(0, func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if n != 3 || err != nil {
		t.Errorf("transient twice: attempts=%d err=%v, want 3, nil", n, err)
	}
	perm := errors.New("invariant violated")
	if n, err := pol.Do(0, func() error { return perm }); n != 1 || !errors.Is(err, perm) {
		t.Errorf("permanent: attempts=%d err=%v, want 1 and the error", n, err)
	}
	if n, err := pol.Do(0, func() error { panic("boom") }); n != 1 || err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic: attempts=%d err=%v, want 1 and a panic error", n, err)
	}
}
