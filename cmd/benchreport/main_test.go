package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// repoHistory loads the committed BENCH_2..12 trajectory from the repo
// root (the test binary runs in cmd/benchreport).
func repoHistory(t *testing.T) []historyReport {
	t.Helper()
	paths := make([]string, 0, 10)
	for _, f := range []string{"BENCH_2.json", "BENCH_3.json", "BENCH_4.json", "BENCH_5.json", "BENCH_6.json", "BENCH_7.json", "BENCH_8.json", "BENCH_9.json", "BENCH_10.json", "BENCH_12.json"} {
		paths = append(paths, filepath.Join("..", "..", f))
	}
	history, err := loadHistory(paths)
	if err != nil {
		t.Fatal(err)
	}
	return history
}

// historySelf reuses the newest committed report as the "current" run:
// a measurement identical to an accepted trajectory point must pass.
func TestGatePassesOnCommittedTrajectory(t *testing.T) {
	history := repoHistory(t)
	current := history[len(history)-1].Benchmarks
	if v := gateCheck(current, history, 1.25); len(v) != 0 {
		t.Fatalf("committed trajectory failed its own gate: %v", v)
	}
}

// TestGateFailsOnInjectedSlowdown is the acceptance criterion: a 2x
// slowdown on the des hot paths (with the frozen baseline untouched)
// doubles every gate ratio and must trip the 1.25x slack.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	history := repoHistory(t)
	last := history[len(history)-1].Benchmarks
	current := make([]Result, len(last))
	copy(current, last)
	for i, r := range current {
		if strings.HasPrefix(r.Name, "des/") {
			current[i].NsPerOp *= 2
		}
	}
	violations := gateCheck(current, history, 1.25)
	if len(violations) == 0 {
		t.Fatal("2x hot-path slowdown passed the trend gate")
	}
	found := false
	for _, v := range violations {
		if strings.Contains(v, "des/schedule_fire ") || strings.Contains(v, "des/schedule_fire regressed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations do not name the schedule_fire hot path: %v", violations)
	}
}

// TestGateAllocRules pins the allocation half of the gate: a zero-alloc
// path that starts allocating fails regardless of timing, and alloc
// growth beyond the slack factor fails too.
func TestGateAllocRules(t *testing.T) {
	history := []historyReport{{
		Path: "synthetic",
		Benchmarks: []Result{
			{Name: "des/schedule_fire", NsPerOp: 100, AllocsPerOp: 0},
			{Name: "des_baseline/schedule_fire", NsPerOp: 200, AllocsPerOp: 2},
			{Name: "trace/sampled_span_tree", NsPerOp: 500, AllocsPerOp: 10},
		},
	}}
	current := []Result{
		{Name: "des/schedule_fire", NsPerOp: 100, AllocsPerOp: 1}, // was zero-alloc
		{Name: "des_baseline/schedule_fire", NsPerOp: 200, AllocsPerOp: 2},
		{Name: "trace/sampled_span_tree", NsPerOp: 500, AllocsPerOp: 20}, // 2x allocs
	}
	violations := gateCheck(current, history, 1.25)
	if len(violations) != 2 {
		t.Fatalf("want the zero-alloc and alloc-growth violations, got %v", violations)
	}
}

// TestGateIgnoresSlowMachines pins the gate's central design point:
// absolute nanoseconds scaled uniformly (a slower CI runner) keep every
// des/baseline ratio unchanged and must pass.
func TestGateIgnoresSlowMachines(t *testing.T) {
	history := repoHistory(t)
	last := history[len(history)-1].Benchmarks
	current := make([]Result, len(last))
	copy(current, last)
	for i := range current {
		current[i].NsPerOp *= 3.7 // everything slower, ratios identical
	}
	if v := gateCheck(current, history, 1.25); len(v) != 0 {
		t.Fatalf("uniformly slower machine failed the gate: %v", v)
	}
}

// withoutLifecycle is a committed trajectory no report of which knows
// request/lifecycle, with the newest point's measurements plus a
// request/lifecycle entry of the given allocs/op as the current run.
func withoutLifecycle(t *testing.T, allocs int64) (current []Result, history []historyReport) {
	t.Helper()
	for _, h := range repoHistory(t) {
		var kept []Result
		for _, r := range h.Benchmarks {
			if r.Name != "request/lifecycle" {
				kept = append(kept, r)
			}
		}
		h.Benchmarks = kept
		history = append(history, h)
	}
	current = append(current, history[len(history)-1].Benchmarks...)
	current = append(current, Result{Name: "request/lifecycle", NsPerOp: 3500, AllocsPerOp: allocs})
	return current, history
}

// TestGateAcceptsEntryWithoutHistory: a benchmark and gate pair that no
// committed report holds yet pass the ratio and growth rules.
func TestGateAcceptsEntryWithoutHistory(t *testing.T) {
	current, history := withoutLifecycle(t, 0)
	if v := gateCheck(current, history, 1.25); len(v) != 0 {
		t.Fatalf("new zero-alloc lifecycle entry failed the gate: %v", v)
	}
}

// TestGateLifecycleAllocBudget: the request lifecycle's zero-allocation
// budget fails the gate even with no committed history to compare to.
func TestGateLifecycleAllocBudget(t *testing.T) {
	current, history := withoutLifecycle(t, 1)
	v := gateCheck(current, history, 1.25)
	if len(v) != 1 || !strings.Contains(v[0], "request/lifecycle") {
		t.Fatalf("want one request/lifecycle budget violation, got %v", v)
	}
}

func TestBestOfKeepsMinNsAndMaxAllocs(t *testing.T) {
	passes := [][]Result{
		{
			{Name: "a", NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "b", NsPerOp: 50, AllocsPerOp: 2, BytesPerOp: 64},
		},
		{
			{Name: "a", NsPerOp: 80, AllocsPerOp: 1, BytesPerOp: 16}, // faster pass, but it allocated
			{Name: "b", NsPerOp: 70, AllocsPerOp: 1, BytesPerOp: 32},
		},
		{
			{Name: "a", NsPerOp: 120, AllocsPerOp: 0, BytesPerOp: 0},
			// "b" missing from this pass: earlier values must survive
		},
	}
	best := bestOf(passes)
	idx := resultIndex(best)
	a, b := idx["a"], idx["b"]
	if a.NsPerOp != 80 {
		t.Errorf("a: want min ns 80, got %v", a.NsPerOp)
	}
	if a.AllocsPerOp != 1 || a.BytesPerOp != 16 {
		t.Errorf("a: want max allocs 1 / bytes 16 (an allocation seen in any pass is real), got %d/%d", a.AllocsPerOp, a.BytesPerOp)
	}
	if b.NsPerOp != 50 || b.AllocsPerOp != 2 || b.BytesPerOp != 64 {
		t.Errorf("b: want 50ns/2allocs/64B, got %v/%d/%d", b.NsPerOp, b.AllocsPerOp, b.BytesPerOp)
	}
}
