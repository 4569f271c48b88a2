package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/runner"
)

// Section II-B measures the metadata access latency (MAL) of designs
// that keep metadata in HBM: "it accounts for 2%~26% of the total memory
// request latency". We reproduce the measurement by running the same
// workload twice — metadata in SRAM vs. metadata in HBM (the Meta-H
// configuration) — and attributing the average miss-latency difference
// to metadata accesses.

// MALResult is the metadata-latency share of one benchmark.
type MALResult struct {
	Bench    string
	SRAMLat  float64 // avg miss latency, metadata in SRAM
	HBMLat   float64 // avg miss latency, metadata in HBM
	MALShare float64 // (HBMLat-SRAMLat)/HBMLat
}

// MAL measures the metadata access latency share for every Table II
// benchmark. Each cell runs its benchmark twice (metadata in SRAM, then in
// HBM) on the same deterministic stream; cells fan out across the pool.
func (h *Harness) MAL() ([]MALResult, error) {
	bs := h.Benchmarks()
	cells := make([]cell, len(bs))
	for i, b := range bs {
		cells[i] = cell{
			ID:   cellID("mal", b.Profile.Name),
			Seed: runner.Seed(string(config.DesignBumblebee), b.Profile.Name),
		}
	}
	return sweepCells(h, cells, 2, func(i int) (MALResult, error) { // each cell runs SRAM- and HBM-metadata
		b := bs[i]
		// Both runs read the same trace through the same hierarchy: the
		// SRAM-metadata run records the front end, the HBM one replays it.
		fe := getFrontEnd()
		defer frontPool.Put(fe)
		var runs [2]RunResult
		for k, inHBM := range []bool{false, true} {
			sys := h.System()
			sys.Bumblebee.MetadataInHBM = inHBM
			mem, err := Build(config.DesignBumblebee, sys)
			if err == nil {
				runs[k], err = h.runFront(fe, sys, mem, b)
			}
			if err != nil {
				return MALResult{}, fmt.Errorf("mal %s: %w", b.Profile.Name, err)
			}
		}
		sram, hbm := runs[0], runs[1]
		r := MALResult{
			Bench:   b.Profile.Name,
			SRAMLat: sram.CPU.AvgMissLatency(),
			HBMLat:  hbm.CPU.AvgMissLatency(),
		}
		if r.HBMLat > 0 && r.HBMLat > r.SRAMLat {
			r.MALShare = (r.HBMLat - r.SRAMLat) / r.HBMLat
		}
		h.log("mal", "bench", r.Bench, "sram_lat", r.SRAMLat, "hbm_lat", r.HBMLat, "share_pct", r.MALShare*100)
		return r, nil
	})
}

// MALTable renders the measurement like the paper quotes it.
func MALTable(results []MALResult) string {
	out := "== Section II-B: metadata access latency in HBM (share of miss latency) ==\n"
	out += fmt.Sprintf("%-11s %12s %12s %8s\n", "bench", "SRAM-lat", "HBM-lat", "MAL")
	min, max := 1.0, 0.0
	for _, r := range results {
		out += fmt.Sprintf("%-11s %12.0f %12.0f %7.1f%%\n", r.Bench, r.SRAMLat, r.HBMLat, r.MALShare*100)
		if r.MALShare < min {
			min = r.MALShare
		}
		if r.MALShare > max {
			max = r.MALShare
		}
	}
	out += fmt.Sprintf("range %.0f%%~%.0f%%   (paper: 2%%~26%%)\n", min*100, max*100)
	return out
}
