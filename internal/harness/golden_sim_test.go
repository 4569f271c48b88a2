package harness

import (
	"bytes"
	"testing"

	"repro/internal/config"
)

// Simulated-number goldens: unlike the emitter goldens (fixed inputs,
// format only), these pin what the model computes on a small but real
// sweep. Any change to a design, the SRAM hierarchy, the core loop or
// trace generation that moves a single counter shows up here as a diff,
// so a model change must come with a deliberate regeneration
// (UPDATE_GOLDEN=1) and a recorded justification.

func goldenSimHarness() *Harness {
	return &Harness{Scale: 1024, Accesses: 20000, Parallel: 4}
}

func TestFigFaultSimulatedGolden(t *testing.T) {
	res, err := goldenSimHarness().FigFaultWith(
		[]config.Design{config.DesignBumblebee, config.DesignHybrid2}, []float64{0, 50})
	if err != nil {
		t.Fatal(err)
	}
	var sweep, runs bytes.Buffer
	if err := WriteFigFaultCSV(&sweep, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteRunsCSV(&runs, res.PerRun); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figfault_sim.golden.csv", sweep.Bytes())
	checkGolden(t, "figfault_sim_runs.golden.csv", runs.Bytes())
}

func TestFig7SimulatedGolden(t *testing.T) {
	h := goldenSimHarness()
	res, err := h.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	var factors bytes.Buffer
	if err := WriteFig7CSV(&factors, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_sim.golden.csv", factors.Bytes())

	// Fig7 returns only its bars, so the per-run rows come from the same
	// (variant, benchmark) cells run one by one through Harness.Run.
	var runs []RunResult
	for _, v := range Fig7Variants() {
		for _, b := range h.Benchmarks() {
			sys := h.System()
			v.Apply(&sys)
			mem, err := Build(config.DesignBumblebee, sys)
			if err != nil {
				t.Fatal(err)
			}
			r, err := h.Run(sys, mem, b)
			if err != nil {
				t.Fatal(err)
			}
			r.Design = v.Label
			runs = append(runs, r)
		}
	}
	var buf bytes.Buffer
	if err := WriteRunsCSV(&buf, runs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_sim_runs.golden.csv", buf.Bytes())
}
