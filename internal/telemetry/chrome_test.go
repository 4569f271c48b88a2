package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleRuns() []TraceRun {
	return []TraceRun{
		{
			Name:    "bumblebee/mcf",
			FreqMHz: 2000,
			Events: []Event{
				{Cycle: 4000, Kind: EvMigration, A: 3, B: 7, C: 12},
				{Cycle: 5000, Kind: EvModeSwitch, A: 3, B: 7, C: 1},
			},
			CounterNames: []string{"chbm_frames", "mhbm_frames"},
			Counters: []CounterSample{
				{Cycle: 4000, Values: []uint64{10, 2}},
				{Cycle: 8000, Values: []uint64{8, 4}},
			},
		},
		{Name: "no-hbm/mcf", FreqMHz: 2000}, // eventless run still gets its metadata
	}
}

// chromeDoc mirrors the trace_event JSON-object envelope for validation.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Ts   float64         `json:"ts"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTraceParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleRuns()); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 process_name metadata + 2 instants + 2 counters.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents = %d, want 6", len(doc.TraceEvents))
	}
	var meta, instant, counter int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "i":
			instant++
			if e.Tid != 1 {
				t.Errorf("instant on tid %d, want 1", e.Tid)
			}
		case "C":
			counter++
			if e.Tid != 0 {
				t.Errorf("counter on tid %d, want 0", e.Tid)
			}
		}
	}
	if meta != 2 || instant != 2 || counter != 2 {
		t.Errorf("meta/instant/counter = %d/%d/%d, want 2/2/2", meta, instant, counter)
	}
	// 4000 cycles at 2 GHz = 2 us.
	if !strings.Contains(buf.String(), `"ts":2.000`) {
		t.Errorf("expected ts 2.000 us in output:\n%s", buf.String())
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, sampleRuns()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, sampleRuns()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("repeated export differs bytewise")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty export has %d events", len(doc.TraceEvents))
	}
}

func TestTsMicros(t *testing.T) {
	cases := []struct {
		cycle, freq uint64
		want        string
	}{
		{0, 2000, "0.000"},
		{2000, 2000, "1.000"}, // 2000 cycles at 2 GHz = 1000 ns
		{1, 2000, "0.000"},    // sub-millinanosecond truncates
		{3, 2000, "0.001"},    // 1.5 ns truncates to 1 millinano... (3*1000/2000 = 1 ns)
		{4500, 1000, "4.500"}, // 1 GHz: cycle = 1 ns
		{123456, 1000, "123.456"},
		{5, 0, "5.000"}, // freq 0 guards to 1 MHz: 5 cycles = 5000 ns
	}
	for _, c := range cases {
		if got := tsMicros(c.cycle, c.freq); got != c.want {
			t.Errorf("tsMicros(%d, %d) = %q, want %q", c.cycle, c.freq, got, c.want)
		}
	}
}

func TestCounterValueShortfallRendersZero(t *testing.T) {
	runs := []TraceRun{{
		Name:         "x",
		FreqMHz:      1000,
		CounterNames: []string{"a", "b"},
		Counters:     []CounterSample{{Cycle: 1, Values: []uint64{7}}}, // one value short
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"a":7,"b":0`) {
		t.Errorf("missing counter value not zero-filled:\n%s", buf.String())
	}
}
