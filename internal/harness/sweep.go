package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/runner"
)

// This file is the crash-safe sweep core every experiment funnels
// through: one helper that applies the harness's execution policy
// (per-cell deadline, classified retries, cooperative interruption),
// deterministic sharding, the checkpoint journal (skip cells a previous
// invocation already completed; durably record each fresh completion),
// and front-end sharing (cells with equal front-end inputs run back to
// back on one worker and filter their trace through the SRAM hierarchy
// once) uniformly, so each figure's sweep stays a thin layer of cell
// construction plus aggregation.

// cell names one unit of sweep work: a stable identity (the journal
// key, e.g. "fig8/bumblebee/mcf"), the replay seed recorded next to its
// result, and its front-end group key.
type cell struct {
	ID   string
	Seed uint64
	// Front is the cell's frontKey; cells with equal non-empty keys form
	// one group that shares a recorded tape. "" runs the cell alone.
	Front string
}

// cellID renders the canonical cell identity: experiment/config/bench.
func cellID(parts ...string) string {
	id := parts[0]
	for _, p := range parts[1:] {
		id += "/" + p
	}
	return id
}

// attemptTracker counts retries per local cell index so the journal can
// record how many attempts a result took.
type attemptTracker struct {
	mu sync.Mutex
	m  map[int]int
}

func (a *attemptTracker) retried(i int) {
	a.mu.Lock()
	a.m[i]++
	a.mu.Unlock()
}

func (a *attemptTracker) attempts(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m[i] + 1
}

// sweepCells fans cells out under the harness policy and returns their
// results indexed like cells. run(i) computes cell i; per is the number
// of simulations one cell performs (for the planned-cell gauge).
func sweepCells[T any](h *Harness, cells []cell, per int, run func(i int) (T, error)) ([]T, error) {
	return sweep(h, cells, per, func(i int, _ *frontEnd) (T, error) { return run(i) })
}

// outcome is one member's result inside a group.
type outcome[T any] struct {
	v        T
	err      error
	attempts int
	ran      bool // resumed, succeeded, or failed; false = never started
}

// sweep is sweepCells with front-end sharing: run(i, fe) computes cell
// i, passing fe to runFront so the cell replays its group's tape.
//
// Sharding: only cells the harness's shard owns are run (or resumed);
// the rest stay zero in the output. Checkpointing: when a journal is
// attached, a cell whose ID it already holds is deserialized from the
// journal instead of re-run — the determinism contract makes the two
// indistinguishable — and every fresh completion is appended before the
// cell is considered done, so a journal write failure fails the cell
// rather than silently dropping resumability.
//
// Grouping: owned cells with equal Front keys form one group, which runs
// on one worker, member after member in cell order, under one deadline
// of CellTimeout × its member count. Everything else stays per cell:
// each member resumes, retries, journals, reports and fails on its own.
func sweep[T any](h *Harness, cells []cell, per int, run func(i int, fe *frontEnd) (T, error)) ([]T, error) {
	owned := make([]int, 0, len(cells))
	for i := range cells {
		if h.Shard.Owns(i) {
			owned = append(owned, i)
		}
	}
	if per < 1 {
		per = 1
	}
	h.Obs.AddPlanned(len(owned) * per)
	if h.Journal != nil && h.Spans.Enabled() && h.Journal.TraceAppend == nil {
		// Thread checkpoint durability onto the request timeline: each
		// journal append becomes a ckpt/append span under the sweep's
		// parent. Set before the workers start, so no append races the
		// hook installation.
		spans, parent := h.Spans, h.SpanParent
		h.Journal.TraceAppend = func(cellID string) func(error) {
			id := spans.Start(parent, "ckpt/append")
			spans.Annotate(id, "cell", cellID)
			return func(err error) {
				if err != nil {
					spans.Fail(id, err)
					return
				}
				spans.End(id)
			}
		}
	}
	groups := frontGroups(cells, owned, h.workers())
	tracker := &attemptTracker{m: make(map[int]int)}
	// Members retry inside their group; the group itself only retries
	// when it overran its deadline, which counts against every member.
	member := runner.Policy{
		Retry:     h.Retry,
		Seed:      runner.Seed("retry-jitter"),
		Interrupt: h.Interrupt,
		OnRetry: func(li, attempt int, err error) {
			tracker.retried(li)
			h.Obs.CellRetried()
			h.log("cell retry", "cell", cells[owned[li]].ID, "attempt", attempt, "err", err.Error())
		},
	}
	group := member
	group.Timeout = h.CellTimeout
	group.Weight = func(k int) int { return len(groups[k]) }
	group.OnRetry = func(k, attempt int, err error) {
		for _, li := range groups[k] {
			member.OnRetry(li, attempt, err)
		}
	}
	runMember := func(li int, fe *frontEnd) outcome[T] {
		gi := owned[li]
		c := cells[gi]
		var v T
		n, err := member.Do(li, func() error {
			if h.Journal != nil {
				if rec, ok := h.Journal.Lookup(c.ID); ok {
					if jerr := json.Unmarshal(rec.Payload, &v); jerr != nil {
						return fmt.Errorf("checkpoint %s: corrupt payload: %w", c.ID, jerr)
					}
					h.Obs.CellResumed()
					// Resumed cells bypass runStream, so replay the recorded
					// result into the live alert monitor: after a resume the
					// firing set must equal an uninterrupted run's.
					h.alertReplay(v)
					h.log("cell resumed", "cell", c.ID, "attempts", rec.Attempts)
					return nil
				}
			}
			var err error
			if v, err = run(gi, fe); err != nil {
				return err
			}
			if h.Journal != nil {
				if jerr := h.Journal.Append(c.ID, c.Seed, tracker.attempts(li), v); jerr != nil {
					return jerr
				}
				h.Obs.Checkpointed()
			}
			return nil
		})
		return outcome[T]{v: v, err: err, attempts: n, ran: true}
	}
	flat, err := runner.MapPolicy(h.workers(), group, groups, func(_ int, g []int) ([]outcome[T], error) {
		var fe *frontEnd // a group of one has nothing to share: it runs fused
		if len(g) > 1 {
			fe = getFrontEnd()
			defer frontPool.Put(fe)
		}
		outs := make([]outcome[T], len(g))
	members:
		for k, li := range g {
			// An interrupt drains the sweep: the member in flight
			// finishes, the group's later members never start.
			select {
			case <-h.Interrupt:
				break members
			default:
			}
			outs[k] = runMember(li, fe)
		}
		return outs, nil
	})
	// Unfold group outcomes into per-cell results and errors, indexed by
	// the cell's position among the owned cells as before grouping.
	groupErr := make([]*runner.CellError, len(groups))
	var ges runner.Errors
	var intr *runner.Interrupted
	if errors.As(err, &intr) {
		ges = intr.Cells
	} else {
		errors.As(err, &ges)
	}
	for _, ge := range ges {
		groupErr[ge.Index] = ge
	}
	out := make([]T, len(cells))
	var failed runner.Errors
	done, skipped := 0, 0
	for k, g := range groups {
		for j, li := range g {
			switch {
			case flat[k] != nil && flat[k][j].ran:
				o := flat[k][j]
				if o.err != nil {
					failed = append(failed, &runner.CellError{Index: li, Attempts: o.attempts, Transient: runner.IsTransient(o.err), Err: o.err})
				} else {
					out[owned[li]] = o.v
				}
				done++
			case groupErr[k] != nil:
				ge := groupErr[k]
				failed = append(failed, &runner.CellError{Index: li, Attempts: ge.Attempts, Transient: ge.Transient, Err: ge.Err})
				done++
			default:
				skipped++
			}
		}
	}
	slices.SortFunc(failed, func(a, b *runner.CellError) int { return a.Index - b.Index })
	switch {
	case skipped > 0:
		return out, &runner.Interrupted{Done: done, Skipped: skipped, Cells: failed}
	case len(failed) > 0:
		return out, failed
	}
	return out, nil
}

// frontGroups partitions the owned cells (by local index) into groups of
// equal Front keys, ordered by first member; keyless cells are groups of
// one. When there are fewer groups than workers, the largest groups are
// halved until every worker has one, since a group runs on one worker.
func frontGroups(cells []cell, owned []int, workers int) [][]int {
	var groups [][]int
	at := map[string]int{}
	for li, gi := range owned {
		key := cells[gi].Front
		if k, ok := at[key]; ok && key != "" {
			groups[k] = append(groups[k], li)
			continue
		}
		at[key] = len(groups)
		groups = append(groups, []int{li})
	}
	for len(groups) < workers {
		big := 0
		for k, g := range groups {
			if len(g) > len(groups[big]) {
				big = k
			}
		}
		g := groups[big]
		if len(g) < 2 {
			break
		}
		half := len(g) / 2
		groups[big] = g[:half:half]
		groups = slices.Insert(groups, big+1, g[half:])
	}
	return groups
}

// sweepGrid is sweep over a rows × cols cross product (the (config,
// benchmark) shape of the figure sweeps), returning results indexed
// [row][col]. id(r, c) names the cell at (rows[r], cols[c]).
func sweepGrid[R, C, T any](h *Harness, rows []R, cols []C, per int,
	id func(ri, ci int) cell, run func(ri, ci int, fe *frontEnd) (T, error)) ([][]T, error) {
	cells := make([]cell, 0, len(rows)*len(cols))
	for ri := range rows {
		for ci := range cols {
			cells = append(cells, id(ri, ci))
		}
	}
	flat, err := sweep(h, cells, per, func(i int, fe *frontEnd) (T, error) {
		return run(i/len(cols), i%len(cols), fe)
	})
	out := make([][]T, len(rows))
	for ri := range rows {
		out[ri] = flat[ri*len(cols) : (ri+1)*len(cols)]
	}
	return out, err
}
