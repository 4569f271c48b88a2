package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Front-end sharing must be invisible in every output: a run that
// replays a recorded tape equals the fused run byte for byte — results,
// telemetry timelines, latency histograms, and the alert samples and
// live firing set derived from them.

// runOutputs renders everything a run contributes to a sweep's artifacts.
func runOutputs(t *testing.T, r RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	runs := []RunResult{r}
	for _, write := range []func(*bytes.Buffer, []RunResult) error{
		func(b *bytes.Buffer, rs []RunResult) error { return WriteRunsCSV(b, rs) },
		func(b *bytes.Buffer, rs []RunResult) error { return WriteTimelineCSV(b, rs) },
		func(b *bytes.Buffer, rs []RunResult) error { return WriteLatencyCSV(b, rs) },
	} {
		if err := write(&buf, runs); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReplayMatchesFusedRunEveryDesign(t *testing.T) {
	base := &Harness{Scale: 1024, Accesses: 20000, TelemetryEpoch: 2000}
	sys := base.System()
	sys.Faults = FaultsAtRate(50)
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	b = b.Scale(base.Scale)
	for _, d := range AllDesigns {
		// fused, record, replay: each path gets its own live monitor.
		var out [3]RunResult
		var mons [3]*alert.Monitor
		fe := getFrontEnd()
		var recorded atomic.Int64
		for k := range out {
			h := *base
			h.onRecord = func() { recorded.Add(1) }
			mons[k] = alert.NewMonitor(alert.Defaults())
			h.Alerts = mons[k]
			mem, err := Build(d, sys)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				out[k], err = h.Run(sys, mem, b)
			} else {
				out[k], err = h.runFront(fe, sys, mem, b)
			}
			if err != nil {
				t.Fatalf("%s path %d: %v", d, k, err)
			}
		}
		frontPool.Put(fe)
		if n := recorded.Load(); n != 1 {
			t.Fatalf("%s: %d tape recordings, want 1 (record, then replay)", d, n)
		}
		if out[0].Telemetry == nil || len(out[0].Telemetry.Timeline) == 0 {
			t.Fatalf("%s: fused run recorded no telemetry", d)
		}
		want := runOutputs(t, out[0])
		for k, name := range []string{1: "record", 2: "replay"} {
			if k == 0 {
				continue // the fused reference
			}
			if got := runOutputs(t, out[k]); !bytes.Equal(got, want) {
				t.Errorf("%s: %s outputs differ from the fused run:\n--- %s ---\n%.600s\n--- fused ---\n%.600s", d, name, name, got, want)
			}
			if !reflect.DeepEqual(AlertInput(out[k:k+1]), AlertInput(out[:1])) {
				t.Errorf("%s: %s alert samples differ from the fused run", d, name)
			}
			if !reflect.DeepEqual(mons[k].Firing(), mons[0].Firing()) || mons[k].Total() != mons[0].Total() {
				t.Errorf("%s: %s live alerts differ from the fused run", d, name)
			}
		}
	}
}

// recordings returns how many tapes f records through h.
func recordings(t *testing.T, h *Harness, f func() error) int64 {
	t.Helper()
	var n atomic.Int64
	h.onRecord = func() { n.Add(1) }
	defer func() { h.onRecord = nil }()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return n.Load()
}

func TestSweepsShareFrontEndsByInputs(t *testing.T) {
	h := &Harness{Scale: 1024, Accesses: 2000, Parallel: 2}
	nb := int64(len(h.Benchmarks()))
	// The fault sweep: a design's runs of one benchmark at every rate.
	if n := recordings(t, h, func() error {
		_, err := h.FigFaultWith(resumeDesigns, resumeRates)
		return err
	}); n != 2*nb {
		t.Errorf("figfault recorded %d tapes, want %d (one per design and benchmark)", n, 2*nb)
	}
	// Fig 6: every block/page configuration of one benchmark. The no-HBM
	// baseline runs alone, fused.
	if n := recordings(t, h, func() error { _, err := h.Fig6(); return err }); n != nb {
		t.Errorf("fig6 recorded %d tapes, want %d", n, nb)
	}
	// Fig 7: the fixed-ratio bars rename the design and so reseed their
	// traces; only the six bars that keep the name share a front end.
	if n := recordings(t, h, func() error { _, err := h.Fig7(); return err }); n != nb {
		t.Errorf("fig7 recorded %d tapes, want %d", n, nb)
	}
	// MAL: the SRAM- and HBM-metadata runs of one cell.
	if n := recordings(t, h, func() error { _, err := h.MAL(); return err }); n != nb {
		t.Errorf("mal recorded %d tapes, want %d", n, nb)
	}
	// Fig 8 compares designs, which seed their traces apart: no sharing.
	if n := recordings(t, h, func() error { _, err := h.Fig8(); return err }); n != 0 {
		t.Errorf("fig8 recorded %d tapes, want 0", n)
	}
}

func TestFrontGroups(t *testing.T) {
	cells := []cell{
		{ID: "a", Front: "x"}, {ID: "b", Front: "y"}, {ID: "c"},
		{ID: "d", Front: "x"}, {ID: "e", Front: "y"}, {ID: "f"}, {ID: "g", Front: "x"},
	}
	all := []int{0, 1, 2, 3, 4, 5, 6}
	cases := []struct {
		owned   []int
		workers int
		want    [][]int
	}{
		// Equal keys group in cell order; keyless cells run alone.
		{all, 2, [][]int{{0, 3, 6}, {1, 4}, {2}, {5}}},
		// Too few groups for the workers: the largest is halved.
		{[]int{0, 3, 6}, 2, [][]int{{0}, {1, 2}}},
		{[]int{0, 3, 6}, 8, [][]int{{0}, {1}, {2}}},
		// Groups hold local (owned) indices.
		{[]int{1, 3, 4, 6}, 1, [][]int{{0, 2}, {1, 3}}},
	}
	for _, tc := range cases {
		if got := frontGroups(cells, tc.owned, tc.workers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("frontGroups(owned=%v, workers=%d) = %v, want %v", tc.owned, tc.workers, got, tc.want)
		}
	}
}

func TestGroupDeadlineFailsEachMember(t *testing.T) {
	// A group that overruns its deadline (CellTimeout × members) fails
	// every member as its own timed-out cell, indexed like the cells.
	release := make(chan struct{})
	defer close(release)
	h := &Harness{Parallel: 2, CellTimeout: 10 * time.Millisecond}
	cells := []cell{{ID: "a", Front: "x"}, {ID: "b", Front: "y"}, {ID: "c", Front: "x"}, {ID: "d"}}
	_, err := sweep(h, cells, 1, func(i int, _ *frontEnd) (int, error) {
		<-release // every cell hangs past its group's deadline
		return i, nil
	})
	var agg runner.Errors
	if !errors.As(err, &agg) || len(agg) != len(cells) {
		t.Fatalf("err = %v, want %d per-cell errors", err, len(cells))
	}
	for i, ce := range agg {
		if ce.Index != i || !ce.Transient || !errors.Is(ce, context.DeadlineExceeded) {
			t.Errorf("error %d = %+v, want cell %d timed out", i, ce, i)
		}
	}
}
