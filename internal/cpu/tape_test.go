package cpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// logMem records every call the back end makes, with a latency that
// depends on the address so the MLP window sees uneven completions.
type logMem struct {
	calls []string
}

func (m *logMem) Access(now uint64, a addr.Addr, write bool) uint64 {
	m.calls = append(m.calls, fmt.Sprint("access ", now, a, write))
	return now + 200 + uint64(a)%977
}

func (m *logMem) Writeback(now uint64, a addr.Addr) {
	m.calls = append(m.calls, fmt.Sprint("writeback ", now, a))
}

// smallHier is the default hierarchy shrunk so a few thousand accesses
// overflow the LLC and push dirty lines to memory.
func smallHier(t *testing.T) *cache.Hierarchy {
	t.Helper()
	levels := config.Default().Caches
	for i := range levels {
		levels[i].SizeBytes /= 128
	}
	h, err := cache.NewHierarchy(levels)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// dirtyHeavy writes often enough over a footprint beyond the LLC that
// most chunks carry LLC writebacks.
var dirtyHeavy = trace.Profile{Name: "dirty", FootprintBytes: 64 * addr.MiB, AvgGap: 3,
	RunMean: 4, HotFraction: 0.2, HotProbability: 0.6, WriteFraction: 0.6}

func TestRecordAndReplayMatchFusedRun(t *testing.T) {
	core := config.Default().Core
	for _, p := range []trace.Profile{memHeavy, cacheFit, dirtyHeavy} {
		const n = 3*batchSize + 123 // ends mid-chunk
		var fused, rec, rep logMem
		want, err := Run(core, smallHier(t), &fused, stream(t, p, n))
		if err != nil {
			t.Fatal(err)
		}
		var tape Tape
		got, err := Record(core, smallHier(t), &rec, stream(t, p, n), &tape)
		if err != nil {
			t.Fatal(err)
		}
		if len(tape.ops) != n {
			t.Fatalf("%s: tape holds %d accesses, want %d", p.Name, len(tape.ops), n)
		}
		if got != want || strings.Join(rec.calls, "\n") != strings.Join(fused.calls, "\n") {
			t.Fatalf("%s: Record differs from Run: %+v vs %+v", p.Name, got, want)
		}
		// Replay twice: the tape is read-only, so both replays match.
		for i := 0; i < 2; i++ {
			rep.calls = rep.calls[:0]
			got, err = Replay(core, &rep, stream(t, p, n), &tape)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || strings.Join(rep.calls, "\n") != strings.Join(fused.calls, "\n") {
				t.Fatalf("%s: Replay %d differs from Run: %+v vs %+v", p.Name, i, got, want)
			}
		}
		if p.Name == dirtyHeavy.Name && want.Writebacks == 0 {
			t.Fatal("dirty profile produced no LLC writebacks; the test does not cover them")
		}
	}
}

// flipWrite inverts the write bit of access k of a stream.
type flipWrite struct {
	s trace.Stream
	k int
}

func (f *flipWrite) Next() (trace.Access, bool) {
	a, ok := f.s.Next()
	if f.k == 0 {
		a.Write = !a.Write
	}
	f.k--
	return a, ok
}

func TestReplayRefusesMismatchedStream(t *testing.T) {
	core := config.Default().Core
	const n = 2*batchSize + 17
	var tape Tape
	if _, err := Record(core, smallHier(t), &fixedMem{lat: 300}, stream(t, memHeavy, n), &tape); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		st         trace.Stream
	}{
		{"truncated", "ended after", stream(t, memHeavy, n-1)},
		{"over-long", "longer than", stream(t, memHeavy, n+1)},
		{"write bit", "write bit", &flipWrite{s: stream(t, memHeavy, n), k: batchSize + 5}},
	}
	for _, tc := range cases {
		_, err := Replay(core, &fixedMem{lat: 300}, tc.st, &tape)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestReplayRefusesDamagedTrace(t *testing.T) {
	// Encode a synthetic stream as BBT1, record its tape from the intact
	// bytes, then replay bytes with one flipped bit: the decoder's damage
	// must fail the replay instead of feeding it a wrong or short stream.
	var enc bytes.Buffer
	w := tracecodec.NewWriter(&enc, tracecodec.Format{Kind: tracecodec.KindBinary})
	src := stream(t, memHeavy, 3*batchSize)
	var cycle uint64
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		cycle += uint64(a.Gap)
		if err := w.Write(tracecodec.Rec{Cycle: cycle, Addr: uint64(a.Addr), Write: a.Write}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	open := func(b []byte) trace.Stream {
		r, err := tracecodec.Open(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return tracecodec.NewStream(r)
	}
	core := config.Default().Core
	var tape Tape
	if _, err := Record(core, smallHier(t), &fixedMem{lat: 300}, open(enc.Bytes()), &tape); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(core, &fixedMem{lat: 300}, open(enc.Bytes()), &tape); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	bad := append([]byte(nil), enc.Bytes()...)
	bad[len(bad)/2] ^= 0x10
	if _, err := Replay(core, &fixedMem{lat: 300}, open(bad), &tape); err == nil || !strings.Contains(err.Error(), "trace stream failed") {
		t.Fatalf("replay of a damaged trace: err = %v, want a decode failure", err)
	}
}
