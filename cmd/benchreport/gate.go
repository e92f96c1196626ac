package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// gatePairs are the hot paths the trend gate watches: each benchmark
// paired with a reference measured in the same process — the inline-heap
// engine against the frozen container/heap baseline, and the striper
// barrier/batch paths against the engine's schedule→fire hot path.
// Committed BENCH_*.json files come from different machines, so the gate
// compares the machine-independent same-process ns ratio numerator ÷
// denominator rather than absolute nanoseconds.
var gatePairs = [][2]string{
	{"des/schedule_fire", "des_baseline/schedule_fire"},
	{"des/schedule_fire_depth1k", "des_baseline/schedule_fire_depth1k"},
	{"des/cancel_heavy", "des_baseline/cancel_heavy"},
	{"des/striper_barrier_loaded", "des/schedule_fire"},
	{"des/striper_idle_fastforward", "des/schedule_fire"},
	{"des/engine_at_batch", "des/schedule_fire"},
	{"forensics/recorder_snapshot", "des/schedule_fire"},
	{"forensics/recorder_audit_event", "des/schedule_fire"},
	{"forensics/detector_tick", "des/schedule_fire"},
	{"twin/tick_steady", "des/schedule_fire"},
	{"qnet/snapshot_solve", "des/schedule_fire"},
	{"request/lifecycle", "des/schedule_fire"},
}

// allocBudgets are hard allocs/op ceilings that hold whether or not the
// committed history knows the benchmark yet.
var allocBudgets = map[string]int64{
	"request/lifecycle": 0,
}

// historyReport is the slice of a committed BENCH_*.json the gate
// reads; every schema since conscale-bench/2 carries it unchanged.
type historyReport struct {
	Path       string   `json:"-"`
	Schema     string   `json:"schema"`
	Benchmarks []Result `json:"benchmarks"`
}

// loadHistory reads the committed trajectory files, skipping paths that
// do not exist (older checkouts may predate a schema) but failing on
// unreadable or malformed ones.
func loadHistory(paths []string) ([]historyReport, error) {
	var out []historyReport
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		raw, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		h := historyReport{Path: p}
		if err := json.Unmarshal(raw, &h); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		if len(h.Benchmarks) > 0 {
			out = append(out, h)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no committed benchmark history found in %s", strings.Join(paths, ", "))
	}
	return out, nil
}

// resultIndex maps benchmark names to their measurements.
func resultIndex(rs []Result) map[string]Result {
	m := make(map[string]Result, len(rs))
	for _, r := range rs {
		m[r.Name] = r
	}
	return m
}

// gateCheck diffs the current microbenchmark run against the committed
// trajectory and returns one violation string per regression:
//
//   - ratio rule: for every gate pair, the current des/baseline ns
//     ratio must stay within slack× the worst (largest) ratio any
//     committed report recorded — a same-machine relative measure, so a
//     slow CI runner cannot fail the gate but a real hot-path slowdown
//     (which moves des without moving the frozen baseline) does;
//   - allocation rule: allocs/op is machine-independent, so any
//     benchmark present in history must not allocate more now — a
//     zero-alloc path must stay at zero, a nonzero one gets the same
//     slack factor;
//   - budget rule: a benchmark with an allocBudgets entry must stay
//     within it, history or not.
//
// A gate pair or benchmark no committed report knows yet passes the
// ratio and growth rules: it gains a trajectory once a report holding it
// is committed.
func gateCheck(current []Result, history []historyReport, slack float64) []string {
	var violations []string
	cur := resultIndex(current)

	for _, pair := range gatePairs {
		worst, worstPath := 0.0, ""
		for _, h := range history {
			idx := resultIndex(h.Benchmarks)
			hn, okHN := idx[pair[0]]
			hb, okHB := idx[pair[1]]
			if !okHN || !okHB || hb.NsPerOp <= 0 {
				continue
			}
			if r := hn.NsPerOp / hb.NsPerOp; r > worst {
				worst, worstPath = r, h.Path
			}
		}
		if worst == 0 {
			continue // pair newer than every committed report
		}
		n, okN := cur[pair[0]]
		b, okB := cur[pair[1]]
		if !okN || !okB || b.NsPerOp <= 0 {
			violations = append(violations, fmt.Sprintf("gate pair %s / %s missing from the current run", pair[0], pair[1]))
			continue
		}
		curRatio := n.NsPerOp / b.NsPerOp
		if curRatio > slack*worst {
			violations = append(violations, fmt.Sprintf(
				"%s regressed: ns ratio vs %s is %.3f, worst committed %.3f (%s), limit %.3f",
				pair[0], pair[1], curRatio, worst, worstPath, slack*worst))
		}
	}

	for _, r := range current {
		if budget, ok := allocBudgets[r.Name]; ok && r.AllocsPerOp > budget {
			violations = append(violations, fmt.Sprintf(
				"%s allocates %d allocs/op, budget %d", r.Name, r.AllocsPerOp, budget))
			continue
		}
		// Compare against the newest committed report that knows the
		// benchmark — the most recent accepted trajectory point.
		var hist *Result
		for _, h := range history {
			idx := resultIndex(h.Benchmarks)
			if hr, ok := idx[r.Name]; ok {
				c := hr
				hist = &c
			}
		}
		if hist == nil {
			continue
		}
		switch {
		case hist.AllocsPerOp == 0 && r.AllocsPerOp > 0:
			violations = append(violations, fmt.Sprintf(
				"%s now allocates: %d allocs/op, committed trajectory holds it at zero", r.Name, r.AllocsPerOp))
		case hist.AllocsPerOp > 0 && float64(r.AllocsPerOp) > slack*float64(hist.AllocsPerOp):
			violations = append(violations, fmt.Sprintf(
				"%s allocation growth: %d allocs/op vs committed %d, limit %.1f",
				r.Name, r.AllocsPerOp, hist.AllocsPerOp, slack*float64(hist.AllocsPerOp)))
		}
	}
	return violations
}

// gatePasses is how many times the gate re-runs the microbenchmark
// suite before judging. Per benchmark it keeps the minimum ns/op and
// the maximum allocs/op across passes: co-tenant load, GC pauses, and
// frequency scaling only ever push a time measurement *up*, so the
// minimum is the observation closest to the true cost — single-shot
// runs of the ~100 µs benches (MVA solves, detector ticks) otherwise
// flake either side of the slack limit on busy 1-core runners — while
// allocs/op is deterministic, so taking the maximum can only surface a
// real allocation, never hide one.
const gatePasses = 3

// bestOf merges repeated microbenchmark passes per the gatePasses rule.
func bestOf(passes [][]Result) []Result {
	best := passes[0]
	for _, pass := range passes[1:] {
		idx := resultIndex(pass)
		for i, r := range best {
			p, ok := idx[r.Name]
			if !ok {
				continue
			}
			if p.NsPerOp < best[i].NsPerOp {
				best[i].NsPerOp = p.NsPerOp
			}
			if p.AllocsPerOp > best[i].AllocsPerOp {
				best[i].AllocsPerOp = p.AllocsPerOp
			}
			if p.BytesPerOp > best[i].BytesPerOp {
				best[i].BytesPerOp = p.BytesPerOp
			}
		}
	}
	return best
}

// runGate is the `-gate` mode: re-measure the hot-path microbenchmarks
// (best of gatePasses runs), diff them against the committed BENCH_2..9
// trajectory, and exit 1 on regression. slowdown (normally 1) multiplies
// the measured des-side nanoseconds — the self-test hook that proves the
// gate trips on an injected hot-path slowdown.
func runGate(historyPaths []string, slack, slowdown float64) {
	history, err := loadHistory(historyPaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("== trend gate: %d committed reports, slack %.2fx, best of %d passes\n", len(history), slack, gatePasses)
	passes := make([][]Result, gatePasses)
	for i := range passes {
		passes[i] = microBenches()
	}
	current := bestOf(passes)
	if slowdown != 1 {
		fmt.Printf("   injecting %.1fx slowdown into the des hot paths (self-test)\n", slowdown)
		for i, r := range current {
			if strings.HasPrefix(r.Name, "des/") {
				current[i].NsPerOp *= slowdown
			}
		}
	}
	for _, pair := range gatePairs {
		idx := resultIndex(current)
		if n, b := idx[pair[0]], idx[pair[1]]; b.NsPerOp > 0 {
			fmt.Printf("   %-28s ratio %.3f (des %.1f ns/op, baseline %.1f ns/op)\n",
				pair[0], n.NsPerOp/b.NsPerOp, n.NsPerOp, b.NsPerOp)
		}
	}
	violations := gateCheck(current, history, slack)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "FAIL:", v)
		}
		os.Exit(1)
	}
	fmt.Println("trend gate passed: hot paths within the committed trajectory")
}
