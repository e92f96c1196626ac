package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestLayerCPU(t *testing.T) {
	samples := []stackSample{
		// A stdlib leaf under rng under server: rng is the innermost repo frame.
		{[]string{"math.Log", "conscale/internal/rng.(*Source).Exp", "conscale/internal/server.(*Server).step", "conscale/internal/des.(*Engine).RunUntil", "main.main"}, 40},
		// mallocgc and a GC assist under a server closure count for server.
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", "conscale/internal/server.(*Server).step.func1", "conscale/internal/des.(*Engine).RunUntil"}, 30},
		// A generic instantiation keeps its package name.
		{[]string{"conscale/internal/des.(*heap[...]).push", "conscale/internal/des.(*Engine).At"}, 10},
		// A dedicated GC mark worker has no repo frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, 8},
		{[]string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, 2},
		// The scheduler parking an idle M.
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 6},
		// A repo frame outside internal/ goes to other.
		{[]string{"runtime.memmove", "main.run"}, 4},
	}
	want := map[string]int64{"rng": 40, "server": 30, "des": 10, "runtime.gc": 10, "runtime.sched": 6, "other": 4}
	got := layerCPU(samples)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layerCPU = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 100 {
		t.Errorf("layers sum to %d ns, want the profile's 100", sum)
	}
}

// TestParseTraces reads the shape `go tool pprof -traces -unit=ns` prints.
func TestParseTraces(t *testing.T) {
	const text = `File: worker
Type: cpu
Duration: 8.66s, Total samples = 40000000ns (0.46%)
-----------+-------------------------------------------------------
10000000ns   math.Exp (inline)
             conscale/internal/rng.(*Source).LogNormal
             main.main
-----------+-------------------------------------------------------
30000000ns   runtime.bgsweep
             runtime.goexit
-----------+-------------------------------------------------------
`
	got, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"math.Exp", "conscale/internal/rng.(*Source).LogNormal", "main.main"}, 10_000_000},
		{[]string{"runtime.bgsweep", "runtime.goexit"}, 30_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
	if _, err := parseTraces(strings.NewReader("-----------+---\n10ms   main.main\n")); err == nil {
		t.Error("a value without the ns unit was accepted")
	}
}
