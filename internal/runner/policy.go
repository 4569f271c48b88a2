package runner

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file is the crash-safe half of the runner: bounded retries with
// classified backoff, cooperative interruption (drain in-flight cells,
// stop scheduling new ones), and deterministic sharding of a sweep's cell
// space across processes. None of it may violate the determinism
// contract: retries re-run the identical cell function (a cell's result
// depends only on its identity, so a retry that succeeds is
// indistinguishable from a first attempt that succeeded), jitter only
// perturbs wall-clock sleeps, and a shard's cell subset is a pure
// function of (index, shard spec).

// ErrInterrupted marks a sweep that was asked to stop: in-flight cells
// drained to completion, unstarted cells never ran. Callers test for it
// with errors.Is and treat the run as resumable, not failed.
var ErrInterrupted = errors.New("runner: sweep interrupted")

// errTransient is the marker wrapped by Transient.
var errTransient = errors.New("transient")

// Transient marks err as retryable: a failure of the run, not of the
// model (I/O hiccups, injected fault-path errors). Cell errors that are
// not transient — model invariant violations above all — fail fast and
// are never retried, because re-running a deterministic cell can only
// reproduce them.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errTransient, err)
}

// IsTransient reports whether a cell error may be retried: timeouts
// (context.DeadlineExceeded) and anything marked with Transient.
func IsTransient(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errTransient)
}

// Retry bounds the per-cell retry budget of a sweep.
type Retry struct {
	// MaxAttempts is the total number of times a cell may run; <= 1
	// disables retries. Only transient failures (IsTransient) consume
	// extra attempts — permanent failures stop at attempt one.
	MaxAttempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it. <= 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay; <= 0 picks DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// DefaultMaxBackoff caps exponential backoff when Retry.MaxBackoff is
// unset.
const DefaultMaxBackoff = 30 * time.Second

// Policy bundles everything MapPolicy needs beyond the cell function:
// the per-cell deadline, the retry budget, the interrupt channel, and
// observation hooks. The zero value behaves exactly like Map.
type Policy struct {
	// Timeout is the per-cell deadline; <= 0 disables it (cells run
	// inline on the worker).
	Timeout time.Duration

	// Weight, when set, scales item i's deadline to Timeout × Weight(i):
	// an item that runs several cells back to back gets every cell's
	// budget. nil means a weight of one.
	Weight func(i int) int

	// Retry is the per-cell retry budget for transient failures.
	Retry Retry

	// Seed feeds the deterministic backoff jitter (splitmix64 over
	// (Seed, cell index, attempt)). Jitter only perturbs sleeps, never
	// results; a zero seed just means unjittered determinism of a
	// different flavour.
	Seed uint64

	// Interrupt, when closed, drains the sweep: workers finish the cell
	// they are running (and abandon retry sleeps), then stop taking new
	// cells. The sweep returns an *Interrupted error.
	Interrupt <-chan struct{}

	// OnRetry observes every retry decision: the cell index, the attempt
	// that just failed (1-based), and its error. Called from worker
	// goroutines; must be safe for concurrent use. nil is ignored.
	OnRetry func(index, attempt int, err error)

	// sleep is the test seam for backoff waits; nil means time.Sleep
	// bounded by the interrupt channel.
	sleep func(d time.Duration, interrupt <-chan struct{})
}

// backoffFor returns the jittered delay before retry number `attempt`
// (1-based: the delay after the attempt-th failure) of cell i.
func (p *Policy) backoffFor(i, attempt int) time.Duration {
	d := p.Retry.Backoff
	if d <= 0 {
		return 0
	}
	for k := 1; k < attempt; k++ {
		d *= 2
		max := p.Retry.MaxBackoff
		if max <= 0 {
			max = DefaultMaxBackoff
		}
		if d >= max {
			d = max
			break
		}
	}
	// Deterministic jitter in [0, d/2): splitmix64 over the cell and
	// attempt, so two processes sweeping different shards do not
	// synchronize their retry bursts.
	j := SeedFold(p.Seed, uint64(i)<<16|uint64(attempt))
	return d + time.Duration(j%uint64(d/2+1))
}

// Do runs cell i inline under the retry budget, without a deadline:
// fn runs again after a transient failure until it succeeds, fails
// permanently, exhausts MaxAttempts, or the sweep is interrupted. A
// panic in fn is that attempt's error. Do returns how many attempts ran
// and the final error.
func (p *Policy) Do(i int, fn func() error) (attempts int, err error) {
	once := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn()
	}
	return p.retry(i, once)
}

// retry is the retry loop shared by Do and MapPolicy: it calls attempt
// until it succeeds or may not run again.
func (p *Policy) retry(i int, attempt func() error) (int, error) {
	maxAttempts := p.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for n := 1; ; n++ {
		err := attempt()
		if err == nil {
			return n, nil
		}
		if !IsTransient(err) || n >= maxAttempts || p.interrupted() {
			return n, err
		}
		if p.OnRetry != nil {
			p.OnRetry(i, n, err)
		}
		p.doSleep(p.backoffFor(i, n))
		if p.interrupted() {
			return n, err
		}
	}
}

// interrupted reports whether the interrupt channel is closed.
func (p *Policy) interrupted() bool {
	if p.Interrupt == nil {
		return false
	}
	select {
	case <-p.Interrupt:
		return true
	default:
		return false
	}
}

// doSleep waits for d, abandoning the wait when the sweep is interrupted.
func (p *Policy) doSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.sleep != nil {
		p.sleep(d, p.Interrupt)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.Interrupt:
	}
}

// Interrupted is the error MapPolicy returns for a drained sweep: how far
// it got, plus the real per-cell failures among the cells that did run.
// errors.Is(err, ErrInterrupted) matches it.
type Interrupted struct {
	Done    int    // cells that ran to completion (failures included)
	Skipped int    // cells never started
	Cells   Errors // per-cell failures among the completed cells
}

func (e *Interrupted) Error() string {
	msg := fmt.Sprintf("%v: %d cells done, %d not started", ErrInterrupted, e.Done, e.Skipped)
	if len(e.Cells) > 0 {
		msg += "; " + e.Cells.Error()
	}
	return msg
}

// Unwrap exposes the sentinel to errors.Is.
func (e *Interrupted) Unwrap() error { return ErrInterrupted }

// Shard names one deterministic slice of a sweep's cell space: shard K of
// N (1-based) owns every cell whose global index i satisfies
// i % N == K-1. The zero value owns everything. Because ownership is a
// pure function of the index, N shard runs partition the sweep exactly,
// and `bbreport merge` can reconstruct the unsharded cell order by
// reading the shards round-robin.
type Shard struct {
	K, N int
}

// Active reports whether the shard restricts the cell space at all.
func (s Shard) Active() bool { return s.N > 1 }

// Owns reports whether global cell index i belongs to this shard.
func (s Shard) Owns(i int) bool { return !s.Active() || i%s.N == s.K-1 }

// String renders the shard as "k/n" ("" for the zero value).
func (s Shard) String() string {
	if s.N == 0 {
		return ""
	}
	return strconv.Itoa(s.K) + "/" + strconv.Itoa(s.N)
}

// ParseShard parses a "k/n" shard spec (1 <= k <= n). The empty string
// is the unsharded zero value.
func ParseShard(spec string) (Shard, error) {
	if spec == "" {
		return Shard{}, nil
	}
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard %q: want k/n", spec)
	}
	ki, err1 := strconv.Atoi(k)
	ni, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil || ni < 1 || ki < 1 || ki > ni {
		return Shard{}, fmt.Errorf("shard %q: want 1 <= k <= n", spec)
	}
	return Shard{K: ki, N: ni}, nil
}
