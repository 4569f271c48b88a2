// Package cpu implements the interval-style core model that replaces the
// paper's gem5 ARM A72: instructions retire at a base CPI, loads and
// stores walk the SRAM cache hierarchy, and LLC misses go to the hybrid
// memory system with a bounded number of overlapping misses (MLP). The
// model's purpose is relative IPC between memory designs, which is driven
// by average miss latency and bandwidth contention — exactly what the
// interval abstraction captures.
//
// A run has two halves. The front end filters the access stream through
// the SRAM hierarchy into a Tape: one byte per access (hit level, write
// bit, number of LLC writebacks) plus the LLC writeback addresses. The
// back end reads the stream and the tape together and does everything
// that involves the memory design: CPI accumulation, the MLP window, and
// the Memory.Access/Writeback calls. Run applies the pair one chunk at a
// time. Record keeps the whole tape, and Replay drives the back end from
// a recorded tape without a hierarchy, so runs that share a stream and a
// cache configuration filter it once. The back end performs the same
// float64 operations per access in the same order on every path, so a
// replayed run is bit-identical to a fused one.
package cpu

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// Memory is the LLC-miss side of a hybrid memory design (a subset of
// hmm.MemSystem, kept local so cpu does not import hmm).
type Memory interface {
	Access(now uint64, a addr.Addr, write bool) uint64
	Writeback(now uint64, a addr.Addr)
}

// Result summarizes one simulation run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Accesses     uint64 // loads+stores issued
	LLCMisses    uint64
	Writebacks   uint64

	TotalMissLatency uint64 // sum of individual LLC miss latencies
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MPKI returns LLC misses per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.LLCMisses) / float64(r.Instructions) * 1000
}

// AvgMissLatency returns the mean LLC miss latency in cycles.
func (r Result) AvgMissLatency() float64 {
	if r.LLCMisses == 0 {
		return 0
	}
	return float64(r.TotalMissLatency) / float64(r.LLCMisses)
}

// RunOption customizes Run, Record and Replay.
type RunOption func(*runCfg)

type runCfg struct {
	accBuf []trace.Access
}

// batchSize is how many trace accesses a run ingests per chunk: large
// enough to amortize the stream's interface dispatch, small enough to
// stay cache-resident.
const batchSize = 4096

// WithAccessBuffer supplies a reusable trace ingestion buffer, so sweep
// drivers running many cells don't allocate one per Run call.
func WithAccessBuffer(buf []trace.Access) RunOption {
	return func(c *runCfg) { c.accBuf = buf }
}

// AccessBufferSize returns the ingestion buffer length expected by Run;
// shorter WithAccessBuffer buffers are used as-is with smaller batches.
func AccessBufferSize() int { return batchSize }

// Tape op byte layout: the hit level plus one (0 = LLC miss) in the low
// three bits, the access's write bit, and the number of LLC writebacks
// the access caused in the high nibble.
const (
	opLevelMask = 0x7
	opWrite     = 0x8
	opWBShift   = 4

	// maxLevels is the deepest hierarchy a tape can describe. Each level
	// can push at most one writeback past the LLC per access, so the
	// writeback count fits its nibble too.
	maxLevels = opLevelMask
)

// Tape is the SRAM hierarchy's verdict over one access stream. It
// depends only on the stream and the hierarchy's configuration, never on
// the memory design, so every run over the same stream and cache
// configuration can replay one recording. The zero value is an empty
// tape; Record overwrites it, reusing its storage.
type Tape struct {
	ops []byte      // one op per access
	wbs []addr.Addr // LLC writeback addresses, in issue order
	// The recording hierarchy's per-level hit latencies and the cycles a
	// miss spends traversing every level.
	lats     []uint64
	missBase uint64
}

// reset empties the tape for a recording through hier.
func (t *Tape) reset(hier *cache.Hierarchy) error {
	if n := len(hier.Latencies()); n > maxLevels {
		return fmt.Errorf("cpu: %d cache levels, a tape holds at most %d", n, maxLevels)
	}
	t.ops, t.wbs = t.ops[:0], t.wbs[:0]
	t.lats = append(t.lats[:0], hier.Latencies()...)
	t.missBase = hier.MissLatencyBase()
	return nil
}

// filter is the front end: it sends acc through hier and appends each
// access's op and LLC writebacks to the tape.
func (t *Tape) filter(hier *cache.Hierarchy, acc []trace.Access) {
	for _, a := range acc {
		r := hier.Access(a.Addr, a.Write)
		op := byte(r.HitLevel+1) | byte(len(r.Writebacks))<<opWBShift
		if a.Write {
			op |= opWrite
		}
		t.ops = append(t.ops, op)
		t.wbs = append(t.wbs, r.Writebacks...)
	}
}

// backend is the design-facing half of a run: the core's clock, the MLP
// window of outstanding misses, and the result counters.
type backend struct {
	core     config.Core
	stall    []float64 // per level: the core stall of a hit there
	missBase float64   // cycles to traverse every level before memory
	time     float64   // CPU cycles; float to accumulate fractional CPI exactly
	// Outstanding miss completion times (bounded by MLP).
	outstanding []float64
	res         Result
}

// newBackend starts a run's back end for the hierarchy t was recorded
// through.
func newBackend(core config.Core, t *Tape) (*backend, error) {
	if core.MLP <= 0 || core.CPIBase <= 0 {
		return nil, fmt.Errorf("cpu: invalid core config %+v", core)
	}
	b := &backend{
		core:        core,
		stall:       make([]float64, len(t.lats)),
		missBase:    float64(t.missBase),
		outstanding: make([]float64, 0, core.MLP),
	}
	for i, l := range t.lats {
		// Inner-cache hits beyond L1 stall for a fraction of their
		// latency; out-of-order execution hides the rest.
		b.stall[i] = float64(l) / float64(core.MLP)
	}
	return b, nil
}

// step runs the back end over one chunk of accesses, their tape ops, and
// the chunk's LLC writeback addresses in order.
func (b *backend) step(mem Memory, acc []trace.Access, ops []byte, wbs []addr.Addr) {
	for i, a := range acc {
		op := ops[i]
		b.res.Accesses++
		b.res.Instructions += uint64(a.Gap)
		b.time += float64(a.Gap) * b.core.CPIBase

		for n := op >> opWBShift; n > 0; n-- {
			b.res.Writebacks++
			mem.Writeback(uint64(b.time), wbs[0])
			wbs = wbs[1:]
		}
		if lvl := int(op & opLevelMask); lvl > 1 {
			b.time += b.stall[lvl-1]
			continue
		} else if lvl == 1 {
			continue // L1 hits are covered by CPIBase
		}

		// LLC miss. If the MLP window is full, the core stalls until the
		// oldest outstanding miss returns.
		if len(b.outstanding) >= b.core.MLP {
			min, idx := b.outstanding[0], 0
			for j, c := range b.outstanding {
				if c < min {
					min, idx = c, j
				}
			}
			if min > b.time {
				b.time = min
			}
			b.outstanding[idx] = b.outstanding[len(b.outstanding)-1]
			b.outstanding = b.outstanding[:len(b.outstanding)-1]
		}
		issue := b.time + b.missBase
		done := float64(mem.Access(uint64(issue), a.Addr, a.Write))
		if done < issue {
			done = issue
		}
		b.res.LLCMisses++
		b.res.TotalMissLatency += uint64(done - b.time)
		b.outstanding = append(b.outstanding, done)
	}
}

// finish drains the MLP window: the run ends when the last miss returns.
func (b *backend) finish() Result {
	for _, c := range b.outstanding {
		if c > b.time {
			b.time = c
		}
	}
	b.res.Cycles = uint64(b.time)
	if b.res.Cycles == 0 {
		b.res.Cycles = 1
	}
	return b.res
}

// chunkFunc supplies the tape ops and LLC writebacks for one chunk of
// trace accesses.
type chunkFunc func(acc []trace.Access) ([]byte, []addr.Addr, error)

// drive reads st one chunk at a time and hands each chunk, with its tape
// section from next, to the back end. t supplies the hierarchy's
// latencies.
func drive(core config.Core, t *Tape, mem Memory, st trace.Stream, opts []RunOption, next chunkFunc) (Result, error) {
	b, err := newBackend(core, t)
	if err != nil {
		return Result{}, err
	}
	var cfg runCfg
	for _, o := range opts {
		o(&cfg)
	}
	buf := cfg.accBuf
	if len(buf) == 0 {
		buf = make([]trace.Access, batchSize)
	}
	for {
		n := trace.FillBatch(st, buf)
		if n == 0 {
			// A stream can end because it is exhausted or because its
			// backing trace file is damaged; a short replay would poison
			// every metric, so decode damage fails the run.
			if err := trace.Err(st); err != nil {
				return b.res, fmt.Errorf("cpu: trace stream failed after %d accesses: %w", b.res.Accesses, err)
			}
			break
		}
		ops, wbs, err := next(buf[:n])
		if err != nil {
			return b.res, err
		}
		b.step(mem, buf[:n], ops, wbs)
	}
	return b.finish(), nil
}

// Run drives the access stream through the hierarchy and memory system
// until the stream ends. The hierarchy and memory retain their state, so
// callers can warm up with one stream and measure with another.
func Run(core config.Core, hier *cache.Hierarchy, mem Memory, st trace.Stream, opts ...RunOption) (Result, error) {
	var t Tape
	if err := t.reset(hier); err != nil {
		return Result{}, err
	}
	return drive(core, &t, mem, st, opts, func(acc []trace.Access) ([]byte, []addr.Addr, error) {
		t.ops, t.wbs = t.ops[:0], t.wbs[:0]
		t.filter(hier, acc)
		return t.ops, t.wbs, nil
	})
}

// Record is Run that keeps the whole tape: afterwards t holds the
// hierarchy's verdict over the stream, ready for Replay.
func Record(core config.Core, hier *cache.Hierarchy, mem Memory, st trace.Stream, t *Tape, opts ...RunOption) (Result, error) {
	if err := t.reset(hier); err != nil {
		return Result{}, err
	}
	return drive(core, t, mem, st, opts, func(acc []trace.Access) ([]byte, []addr.Addr, error) {
		o, w := len(t.ops), len(t.wbs)
		t.filter(hier, acc)
		return t.ops[o:], t.wbs[w:], nil
	})
}

// Replay runs mem over st using a recorded tape in place of the SRAM
// hierarchy. st must re-read the stream the tape was recorded from: the
// run fails if st ends before or after the tape, if an access's write bit
// disagrees with the tape, or if the stream is damaged. The tape is only
// read, so any number of replays can share it.
func Replay(core config.Core, mem Memory, st trace.Stream, t *Tape, opts ...RunOption) (Result, error) {
	pos, wpos := 0, 0
	res, err := drive(core, t, mem, st, opts, func(acc []trace.Access) ([]byte, []addr.Addr, error) {
		if pos+len(acc) > len(t.ops) {
			return nil, nil, fmt.Errorf("cpu: replay stream is longer than its %d-access tape", len(t.ops))
		}
		ops := t.ops[pos : pos+len(acc)]
		nwb := 0
		for i, op := range ops {
			if (op&opWrite != 0) != acc[i].Write {
				return nil, nil, fmt.Errorf("cpu: replay access %d disagrees with the tape's write bit", pos+i)
			}
			nwb += int(op >> opWBShift)
		}
		wbs := t.wbs[wpos : wpos+nwb]
		pos, wpos = pos+len(acc), wpos+nwb
		return ops, wbs, nil
	})
	if err == nil && pos != len(t.ops) {
		return res, fmt.Errorf("cpu: replay stream ended after %d of its tape's %d accesses", pos, len(t.ops))
	}
	return res, err
}
