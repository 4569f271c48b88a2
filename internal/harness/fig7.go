package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// Figure 7: the performance-factor breakdown. Ten Bumblebee variants
// (single modes, fixed ratios, and one ablation per design decision) run
// every Table II benchmark; each bar is the geomean speedup over the
// no-HBM baseline.

// Fig7Result is one bar.
type Fig7Result struct {
	Label   string
	Speedup float64
}

// Fig7 reproduces the factor breakdown, fanning the 10-variant × 14-bench
// matrix across the harness worker pool.
func (h *Harness) Fig7() ([]Fig7Result, error) {
	bs := h.Benchmarks()
	base, err := h.runBaseline(bs)
	if err != nil {
		return nil, err
	}
	vs := Fig7Variants()
	system := func(v Variant) config.System {
		sys := h.System()
		v.Apply(&sys)
		return sys
	}
	// The fixed-ratio bars rename the design, which reseeds their traces:
	// only the bars that keep the name share a benchmark's front end.
	fronts := make([][]string, len(vs))
	for vi, v := range vs {
		fronts[vi] = h.frontKeys(config.DesignBumblebee, system(v), bs)
	}
	speedups, err := sweepGrid(h, vs, bs, 1,
		func(vi, bi int) cell {
			v, b := vs[vi], bs[bi].Profile.Name
			return cell{ID: cellID("fig7", v.Label, b), Seed: runner.Seed("bumblebee", b), Front: fronts[vi][bi]}
		},
		func(vi, bi int, fe *frontEnd) (float64, error) {
			v, b := vs[vi], bs[bi]
			sys := system(v)
			mem, err := Build(config.DesignBumblebee, sys)
			if err != nil {
				return 0, fmt.Errorf("fig7 %s: %w", v.Label, err)
			}
			r, err := h.runFront(fe, sys, mem, b)
			if err != nil {
				return 0, fmt.Errorf("fig7 %s/%s: %w", v.Label, b.Profile.Name, err)
			}
			return r.CPU.IPC() / base.ipc[b.Profile.Name], nil
		})
	if err != nil {
		return nil, err
	}
	var out []Fig7Result
	for vi, v := range vs {
		gm, err := metrics.Geomean(speedups[vi])
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Result{Label: v.Label, Speedup: gm})
		h.log("fig7", "variant", v.Label, "speedup", gm)
	}
	return out, nil
}

// Fig7Table renders the breakdown like the figure.
func Fig7Table(results []Fig7Result) string {
	out := "== Figure 7: performance factors breakdown (geomean speedup vs no-HBM) ==\n"
	for _, r := range results {
		out += fmt.Sprintf("%-10s %8.3f\n", r.Label, r.Speedup)
	}
	return out
}
