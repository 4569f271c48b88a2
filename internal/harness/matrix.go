package harness

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Matrix runs an explicit design × benchmark matrix over sys under the
// full harness policy — worker pool, per-cell timeout, retry, checkpoint
// journal, interrupt drain — and returns results in matrix order. It is
// the sweep behind bumblebee-sim's list mode; unlike the figure sweeps
// it takes the system verbatim so flag overrides (block size, faults)
// apply to every cell.
func (h *Harness) Matrix(sys config.System, designs, benches []string) ([][]RunResult, error) {
	return sweepGrid(h, designs, benches, 1,
		func(di, bi int) cell {
			d, b := designs[di], benches[bi]
			return cell{ID: cellID("matrix", d, b), Seed: runner.Seed(d, b)}
		},
		func(di, bi int, _ *frontEnd) (RunResult, error) {
			d, bench := designs[di], benches[bi]
			b, err := trace.ByName(bench)
			if err != nil {
				return RunResult{}, fmt.Errorf("unknown benchmark %q (known: %s)",
					bench, strings.Join(trace.Names(), ", "))
			}
			mem, err := Build(config.Design(d), sys)
			if err != nil {
				return RunResult{}, err
			}
			return h.Run(sys, mem, b.Scale(h.Scale))
		})
}
