// Command benchreport measures the repo's performance-critical paths and
// writes the results as a machine-readable JSON file (BENCH_12.json), so
// every future change has a perf trajectory to compare against:
//
//   - DES engine microbenchmarks (inline 4-ary heap) against the frozen
//     container/heap baseline in internal/des/baseline — ns/op, B/op,
//     allocs/op for the schedule→fire hot path, a 1k-deep heap, and the
//     cancel-heavy Ticker pattern;
//   - metrics.Recorder Arrive/Depart and window-close costs;
//   - trace microbenchmarks: the disabled-tracer hot path (must stay at
//     zero allocations) and the sampled span-tree lifecycle;
//   - the end-to-end experiment harness: the Table 1 run matrix executed
//     sequentially and with the parallel worker pool, wall-clock for both,
//     plus a byte-identity check that the fan-out changes nothing;
//   - tracer overhead end to end: the same run untraced, head-sampled at
//     1/64, and fully sampled, with a timeline byte-identity check;
//   - telemetry registry microbenchmarks: counter increment and histogram
//     observe enabled and disabled (the disabled path must stay at zero
//     allocations) plus a full scrape snapshot of a populated registry;
//   - telemetry overhead end to end: the same run bare and with the whole
//     layer armed (registry, collectors, 5 s scraper, SLO monitor), with a
//     timeline byte-identity check;
//   - scale-mode microbenchmarks (striper window barrier empty and
//     loaded, idle fast-forward, Engine.AtBatch bulk insert, streaming
//     arrival hot path — the loaded barrier and AtBatch must stay at
//     zero allocations) and the client-count sweep — {10k, 100k, 1M}
//     clients × {EC2, DCM, ConScale} (the 10k tier only under -short) —
//     reporting wall time, events/sec, peak heap, and controller tails,
//     plus a striped-vs-sequential byte-identity check and a striper
//     worker-count scaling curve (1/2/4/8 workers on the ConScale cell);
//   - a controller-zoo smoke tournament: every registered controller on
//     one trace, ranked on p99 / SLO-burn minutes / VM-hours (the full
//     factorial lives in `experiments -run tournament`);
//   - forensics microbenchmarks: the disabled flight-recorder hot path
//     (must stay at zero allocations), armed snapshot/audit-event
//     recording, and the episode detector's observe and tick costs;
//   - forensics overhead end to end: the same run bare and with the
//     whole forensics layer armed (recorder rings, episode detector,
//     1 s snapshot ticker), with a timeline byte-identity check;
//   - analytical-twin microbenchmarks (the disabled observer hot path
//     must stay at zero allocations; the steady tick with its MVA solve;
//     the qnet snapshot+solve cost at 2500 clients) and twin overhead
//     end to end: the same run bare and twin-armed, with a timeline
//     byte-identity check;
//   - admission-control microbenchmarks: every policy family's Admit
//     hot path (always, queue-cap, priority, and CoDel's admit+feedback
//     cycle — all must stay at zero allocations) plus the shed-rate
//     meter, and admission overhead end to end: the same run bare,
//     with an explicit always-admit policy installed (must stay
//     byte-identical to no policy at all), and with the queue-cap
//     shedder armed to smoke the drop path;
//   - the request lifecycle end to end: one bare RUBBoS request through
//     the web, app and DB tiers of a default cluster, from Submit to its
//     completion callback (must stay at zero allocations).
//
// The -gate mode re-measures only the hot-path microbenchmarks and
// diffs them against the committed BENCH_2..12 trajectory: the
// machine-independent same-process ns ratios (des vs the frozen
// baseline, striper barrier and request lifecycle vs the engine hot
// path) must stay within the slack factor of the worst committed ratio,
// allocs/op must not grow, and the zero-allocation budgets hold.
//
// Usage:
//
//	benchreport -out BENCH_12.json          # full measurement
//	benchreport -short -out BENCH_12.json   # CI smoke (seconds, not minutes)
//	benchreport -gate                       # trend gate vs committed BENCH_2..12
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/des/baseline"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	"conscale/internal/metrics"
	"conscale/internal/qnet"
	"conscale/internal/rng"
	"conscale/internal/rubbos"
	"conscale/internal/scaling"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// Result is one microbenchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Harness records the end-to-end experiment fan-out measurement.
type Harness struct {
	Experiment    string  `json:"experiment"`
	Workers       int     `json:"workers"`
	SequentialSec float64 `json:"sequential_seconds"`
	ParallelSec   float64 `json:"parallel_seconds"`
	Speedup       float64 `json:"speedup"`
	OutputsMatch  bool    `json:"outputs_byte_identical"`
}

// Tracing records the tracer overhead measurement: one run untraced, the
// same run head-sampled at the canonical 1/64, and fully sampled.
type Tracing struct {
	Experiment        string  `json:"experiment"`
	OffSec            float64 `json:"tracer_off_seconds"`
	SampledSec        float64 `json:"tracer_sampled_seconds"`
	FullSec           float64 `json:"tracer_full_seconds"`
	SampledPct        float64 `json:"sampled_overhead_pct"`
	FullPct           float64 `json:"full_overhead_pct"`
	TimelineIdentical bool    `json:"timeline_byte_identical"`
}

// Telemetry records the telemetry-layer overhead measurement: one run
// bare and the same run with the full layer armed.
type Telemetry struct {
	Experiment        string  `json:"experiment"`
	OffSec            float64 `json:"telemetry_off_seconds"`
	OnSec             float64 `json:"telemetry_on_seconds"`
	OverheadPct       float64 `json:"overhead_pct"`
	Scrapes           int     `json:"scrapes"`
	TimelineIdentical bool    `json:"timeline_byte_identical"`
}

// Scale records the scale-mode sweep: one row per (mode, clients) point
// plus the striped-vs-sequential identity verdict and the striper
// worker-count scaling curve (same cell, workers varied).
type Scale struct {
	Sweep                    string                `json:"sweep"`
	Rows                     []experiment.ScaleRow `json:"rows"`
	Curve                    []experiment.ScaleRow `json:"curve,omitempty"`
	StripedMatchesSequential bool                  `json:"striped_byte_identical"`
	ProcessPeakRSSMB         float64               `json:"process_peak_rss_mb"`
}

// Tournament records the controller-zoo smoke tournament: every
// registered controller on one trace, ranked on the tournament axes.
type Tournament struct {
	Factorial string                      `json:"factorial"`
	Ranking   []experiment.TournamentRank `json:"ranking"`
	Cells     []experiment.TournamentCell `json:"cells"`
}

// Forensics records the flight-recorder + episode-detector overhead
// measurement: one run bare and the same run with the layer armed.
type Forensics struct {
	Experiment        string  `json:"experiment"`
	OffSec            float64 `json:"forensics_off_seconds"`
	OnSec             float64 `json:"forensics_on_seconds"`
	OverheadPct       float64 `json:"overhead_pct"`
	Episodes          int     `json:"episodes"`
	Snapshots         uint64  `json:"snapshots"`
	TimelineIdentical bool    `json:"timeline_byte_identical"`
}

// Twin records the analytical-twin overhead measurement: one run bare
// and the same run with the twin observer armed.
type Twin struct {
	Experiment        string  `json:"experiment"`
	OffSec            float64 `json:"twin_off_seconds"`
	OnSec             float64 `json:"twin_on_seconds"`
	OverheadPct       float64 `json:"overhead_pct"`
	Ticks             uint64  `json:"ticks"`
	Applicable        uint64  `json:"applicable_ticks"`
	Drifts            uint64  `json:"drift_flags"`
	TimelineIdentical bool    `json:"timeline_byte_identical"`
}

// Admission records the admission-layer overhead measurement: one run
// bare (no policy installed), the same run with an explicit always-admit
// policy on the web and app tiers — the installed no-op must be
// byte-identical to no policy at all — and one run with the queue-cap
// shedder armed to smoke the drop path end to end.
type Admission struct {
	Experiment        string  `json:"experiment"`
	OffSec            float64 `json:"admission_off_seconds"`
	AlwaysSec         float64 `json:"always_admit_seconds"`
	OverheadPct       float64 `json:"overhead_pct"`
	TimelineIdentical bool    `json:"timeline_byte_identical"`
	ShedPolicy        string  `json:"shed_policy"`
	Sheds             uint64  `json:"sheds"`
	BrowseSheds       uint64  `json:"browse_sheds"`
	RWSheds           uint64  `json:"read_write_sheds"`
}

// Report is the BENCH_12.json document.
type Report struct {
	Schema     string             `json:"schema"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Short      bool               `json:"short"`
	Benchmarks []Result           `json:"benchmarks"`
	Harness    Harness            `json:"harness"`
	Tracing    Tracing            `json:"tracing"`
	Telemetry  Telemetry          `json:"telemetry"`
	Scale      Scale              `json:"scale"`
	Tournament Tournament         `json:"tournament"`
	Forensics  Forensics          `json:"forensics"`
	Twin       Twin               `json:"twin"`
	Admission  Admission          `json:"admission"`
	Derived    map[string]float64 `json:"derived"`
}

func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		Ops:         r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func main() {
	var (
		out          = flag.String("out", "BENCH_12.json", "output path for the JSON report")
		short        = flag.Bool("short", false, "shrink the harness measurement for CI smoke runs")
		gate         = flag.Bool("gate", false, "trend-gate mode: measure only the hot-path microbenchmarks, diff against the committed history, exit 1 on regression")
		history      = flag.String("gate-history", "BENCH_2.json,BENCH_3.json,BENCH_4.json,BENCH_5.json,BENCH_6.json,BENCH_7.json,BENCH_8.json,BENCH_9.json,BENCH_10.json,BENCH_12.json", "comma-separated committed reports the gate diffs against")
		gateSlack    = flag.Float64("gate-slack", 1.25, "allowed growth factor over the worst committed ratio before the gate fails")
		gateSlowdown = flag.Float64("gate-slowdown", 1, "multiply the measured des hot-path nanoseconds (self-test hook: 2 must fail the gate)")
	)
	flag.Parse()

	if *gate {
		runGate(strings.Split(*history, ","), *gateSlack, *gateSlowdown)
		return
	}

	rep := Report{
		Schema:     "conscale-bench/12",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      *short,
		Derived:    map[string]float64{},
	}

	rep.Benchmarks = microBenches()
	for _, r := range rep.Benchmarks {
		fmt.Printf("   %-36s %12.1f ns/op %8d B/op %6d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}

	// Headline derived numbers: the acceptance criteria of the perf work.
	byName := resultIndex(rep.Benchmarks)
	if n, b := byName["des/schedule_fire"], byName["des_baseline/schedule_fire"]; b.AllocsPerOp > 0 {
		rep.Derived["des_allocs_reduction_pct"] = 100 * float64(b.AllocsPerOp-n.AllocsPerOp) / float64(b.AllocsPerOp)
		rep.Derived["des_ns_speedup"] = b.NsPerOp / n.NsPerOp
	}
	rep.Derived["trace_disabled_allocs_per_op"] = float64(byName["trace/disabled_hot_path"].AllocsPerOp)
	rep.Derived["trace_sampled_ns_per_request"] = byName["trace/sampled_span_tree"].NsPerOp
	rep.Derived["telemetry_disabled_allocs_per_op"] = float64(byName["telemetry/disabled_hot_path"].AllocsPerOp)
	rep.Derived["telemetry_counter_ns_per_inc"] = byName["telemetry/counter_inc"].NsPerOp
	rep.Derived["telemetry_histogram_ns_per_observe"] = byName["telemetry/histogram_observe"].NsPerOp
	rep.Derived["forensics_disabled_allocs_per_op"] = float64(byName["forensics/recorder_disabled"].AllocsPerOp)
	rep.Derived["forensics_snapshot_ns_per_op"] = byName["forensics/recorder_snapshot"].NsPerOp
	rep.Derived["forensics_tick_ns_per_op"] = byName["forensics/detector_tick"].NsPerOp
	rep.Derived["twin_disabled_allocs_per_op"] = float64(byName["twin/observe_disabled"].AllocsPerOp)
	rep.Derived["twin_tick_ns_per_op"] = byName["twin/tick_steady"].NsPerOp
	rep.Derived["qnet_snapshot_solve_ns_per_op"] = byName["qnet/snapshot_solve"].NsPerOp
	var admitAllocs float64
	for _, n := range []string{"admission/always_admit", "admission/queue_cap_admit",
		"admission/priority_admit", "admission/codel_admit_observe"} {
		if a := float64(byName[n].AllocsPerOp); a > admitAllocs {
			admitAllocs = a
		}
	}
	rep.Derived["admission_admit_allocs_per_op"] = admitAllocs
	rep.Derived["admission_codel_ns_per_op"] = byName["admission/codel_admit_observe"].NsPerOp
	rep.Derived["request_lifecycle_allocs_per_op"] = float64(byName["request/lifecycle"].AllocsPerOp)
	rep.Derived["request_lifecycle_ns_per_op"] = byName["request/lifecycle"].NsPerOp
	runEndToEnd(&rep, *short, *out)
}

// microBenches measures every microbenchmark section — the hot paths
// the trend gate watches plus the observability layers' unit costs.
func microBenches() []Result {
	var results []Result
	fmt.Println("== DES engine microbenchmarks (inline 4-ary heap vs container/heap baseline)")
	results = append(results,
		measure("des/schedule_fire", func(b *testing.B) {
			b.ReportAllocs()
			e := des.New()
			fn := func() {}
			for i := 0; i < b.N; i++ {
				e.After(1, fn)
				e.Step()
			}
		}),
		measure("des_baseline/schedule_fire", func(b *testing.B) {
			b.ReportAllocs()
			e := baseline.New()
			fn := func() {}
			for i := 0; i < b.N; i++ {
				e.After(1, fn)
				e.Step()
			}
		}),
		measure("des/schedule_fire_depth1k", func(b *testing.B) {
			b.ReportAllocs()
			e := des.New()
			fn := func() {}
			for i := 0; i < 1000; i++ {
				e.After(des.Time(1+i), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(1000, fn)
				e.Step()
			}
		}),
		measure("des_baseline/schedule_fire_depth1k", func(b *testing.B) {
			b.ReportAllocs()
			e := baseline.New()
			fn := func() {}
			for i := 0; i < 1000; i++ {
				e.After(baseline.Time(1+i), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(1000, fn)
				e.Step()
			}
		}),
		measure("des/cancel_heavy", func(b *testing.B) {
			b.ReportAllocs()
			e := des.New()
			fn := func() {}
			for i := 0; i < b.N; i++ {
				h := e.After(1, fn)
				e.After(1, fn)
				h.Cancel()
				e.Step()
			}
		}),
		measure("des_baseline/cancel_heavy", func(b *testing.B) {
			b.ReportAllocs()
			e := baseline.New()
			fn := func() {}
			for i := 0; i < b.N; i++ {
				h := e.After(1, fn)
				e.After(1, fn)
				h.Cancel()
				e.Step()
			}
		}),
	)

	fmt.Println("== metrics.Recorder microbenchmarks")
	results = append(results,
		measure("metrics/arrive_depart", func(b *testing.B) {
			b.ReportAllocs()
			r := metrics.NewRecorder(50 * des.Millisecond)
			now := des.Time(0.001)
			for i := 0; i < b.N; i++ {
				r.Arrive(now)
				r.Depart(now, 0.002)
			}
		}),
		measure("metrics/window_advance", func(b *testing.B) {
			b.ReportAllocs()
			r := metrics.NewRecorder(50 * des.Millisecond)
			now := des.Time(0)
			for i := 0; i < b.N; i++ {
				r.Arrive(now)
				r.Depart(now, 0.002)
				now += 50 * des.Millisecond
				if i%1024 == 1023 {
					r.Flush(now)
				}
			}
		}),
	)

	fmt.Println("== trace microbenchmarks (disabled hot path must stay 0 allocs/op)")
	results = append(results,
		measure("trace/disabled_hot_path", func(b *testing.B) {
			b.ReportAllocs()
			tr := trace.New(trace.Config{SampleRate: 1})
			tr.SetEnabled(false)
			for i := 0; i < b.N; i++ {
				sp := tr.StartRequest("browse", 1)
				sp.EnterServer("web1", 1)
				sp.NotePick("lb", 3)
				sp.Admitted(2)
				sp.AddProc(trace.SegCPUWait, trace.SegCPU, 2, 1, 3)
				child := sp.StartChild(3)
				child.Finish(4, trace.OutcomeOK)
				tr.EndRequest(sp, 4, true)
			}
		}),
		measure("trace/sampled_span_tree", func(b *testing.B) {
			b.ReportAllocs()
			tr := trace.New(trace.Config{SampleRate: 1, Reservoir: -1})
			for i := 0; i < b.N; i++ {
				// Re-arm periodically so the blame record list doesn't grow
				// without bound across benchmark scaling.
				if i%(1<<16) == 0 {
					tr = trace.New(trace.Config{SampleRate: 1, Reservoir: -1})
				}
				now := des.Time(i)
				sp := tr.StartRequest("browse", now)
				sp.EnterServer("web1", now)
				sp.Admitted(now + 0.001)
				sp.AddProc(trace.SegCPUWait, trace.SegCPU, now+0.001, 0.002, now+0.004)
				child := sp.StartChild(now + 0.004)
				child.EnterServer("mysql1", now+0.004)
				child.Admitted(now + 0.004)
				child.AddProc(trace.SegDiskWait, trace.SegDisk, now+0.004, 0.001, now+0.006)
				child.Finish(now+0.006, trace.OutcomeOK)
				tr.EndRequest(sp, now+0.007, true)
			}
		}),
	)
	fmt.Println("== telemetry registry microbenchmarks (disabled hot path must stay 0 allocs/op)")
	results = append(results,
		measure("telemetry/counter_inc", func(b *testing.B) {
			b.ReportAllocs()
			reg := telemetry.NewRegistry()
			c := reg.Counter("bench_requests_total", "bench", "server", "web1")
			for i := 0; i < b.N; i++ {
				c.Inc()
			}
		}),
		measure("telemetry/histogram_observe", func(b *testing.B) {
			b.ReportAllocs()
			reg := telemetry.NewRegistry()
			h := reg.Histogram("bench_rt_seconds", "bench", "server", "web1")
			for i := 0; i < b.N; i++ {
				h.Observe(0.042)
			}
		}),
		measure("telemetry/disabled_hot_path", func(b *testing.B) {
			b.ReportAllocs()
			reg := telemetry.NewRegistry()
			reg.SetEnabled(false)
			c := reg.Counter("bench_requests_total", "bench", "server", "web1")
			h := reg.Histogram("bench_rt_seconds", "bench", "server", "web1")
			g := reg.Gauge("bench_depth", "bench", "server", "web1")
			for i := 0; i < b.N; i++ {
				c.Inc()
				h.Observe(0.042)
				g.Set(float64(i))
			}
		}),
		measure("telemetry/scrape_snapshot", func(b *testing.B) {
			// A populated registry shaped like a mid-size cluster: 24
			// servers x (histogram + 2 counters + 3 gauges).
			reg := telemetry.NewRegistry()
			for s := 0; s < 24; s++ {
				name := fmt.Sprintf("web%d", s)
				h := reg.Histogram("bench_rt_seconds", "bench", "server", name)
				for i := 0; i < 200; i++ {
					h.Observe(0.01 * float64(i%37+1))
				}
				reg.Counter("bench_completed_total", "bench", "server", name).Add(1000)
				reg.Counter("bench_errored_total", "bench", "server", name).Add(3)
				reg.Gauge("bench_threads", "bench", "server", name).Set(40)
				reg.Gauge("bench_queue", "bench", "server", name).Set(7)
				reg.Gauge("bench_cpu", "bench", "server", name).Set(0.6)
			}
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := reg.WriteProm(&buf); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)
	fmt.Println("== scale-mode microbenchmarks (striper barrier, streaming arrival)")
	results = append(results,
		measure("des/striper_window_barrier", func(b *testing.B) {
			// Pure synchronization cost: 8 empty shards crossing one
			// lookahead window per op.
			b.ReportAllocs()
			s := des.NewStriper(8, des.Millisecond)
			for i := 0; i < b.N; i++ {
				s.RunUntil(s.Now() + des.Millisecond)
			}
		}),
		measure("des/striper_cross_send", func(b *testing.B) {
			b.ReportAllocs()
			s := des.NewStriper(2, des.Millisecond)
			fn := func() {}
			for i := 0; i < b.N; i++ {
				s.Shard(0).Send(1, des.Millisecond, fn)
				s.RunUntil(s.Now() + 2*des.Millisecond)
			}
		}),
		measure("des/striper_barrier_loaded", func(b *testing.B) {
			// Steady-state cost of a traffic-carrying window barrier:
			// run the window, sort per-shard outboxes, k-way merge,
			// bulk-insert 32 deliveries. The re-arming tick closures are
			// created once at setup, so this must stay at 0 allocs/op —
			// the gate's allocation rule pins it.
			b.ReportAllocs()
			const horizon = des.Millisecond
			s := des.NewStriper(4, horizon)
			fn := func() {}
			for i := 0; i < 4; i++ {
				i := i
				sh := s.Shard(i)
				var tick func()
				tick = func() {
					for k := 0; k < 8; k++ {
						sh.Send((i+1+k)%4, horizon+des.Time(k%3)*horizon, fn)
					}
					sh.Eng.At(sh.Eng.Now()+horizon, tick)
				}
				sh.Eng.At(0, tick)
			}
			for w := 0; w < 64; w++ {
				s.RunUntil(s.Now() + horizon)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunUntil(s.Now() + horizon)
			}
		}),
		measure("des/striper_idle_fastforward", func(b *testing.B) {
			// Skipping a one-second idle stretch (1000 empty lookahead
			// windows) per op: idle time must be nearly free.
			b.ReportAllocs()
			s := des.NewStriper(4, des.Millisecond)
			sh := s.Shard(0)
			var tick func()
			tick = func() { sh.Eng.At(sh.Eng.Now()+des.Second, tick) }
			sh.Eng.At(0, tick)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunUntil(s.Now() + des.Second)
			}
		}),
		measure("des/engine_at_batch", func(b *testing.B) {
			// The barrier bulk-insert path: 64 merged deliveries into a
			// warm engine per op; steady state must stay at 0 allocs/op.
			b.ReportAllocs()
			e := des.New()
			fn := func() {}
			evs := make([]des.BatchEvent, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := e.Now() + 1
				for j := range evs {
					evs[j] = des.BatchEvent{At: at + des.Time(j), Fn: fn}
				}
				e.AtBatch(evs)
				e.RunUntil(at + des.Time(len(evs)))
			}
		}),
		measure("workload/streaming_arrival", func(b *testing.B) {
			// Per-request cost of the streaming population with an
			// immediately-completing system: arrival draw + class pick +
			// submit + stream-stats fold.
			b.ReportAllocs()
			eng := des.New()
			gen := workload.NewGenerator(eng, rng.New(1), workload.GeneratorConfig{
				Trace:     workload.NewConstantTrace(1_000_000, des.Time(1e9)),
				ThinkTime: 1,
				Streaming: true,
			}, func(done func(ok bool)) { done(true) })
			gen.Start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		}),
	)
	fmt.Println("== forensics microbenchmarks (disabled recorder hot path must stay 0 allocs/op)")
	results = append(results,
		measure("forensics/recorder_disabled", func(b *testing.B) {
			b.ReportAllocs()
			f := forensics.New(forensics.Config{})
			f.SetEnabled(false)
			ev := trace.AuditEvent{Time: 1, Kind: trace.AuditScaleOutLaunch, Tier: "tomcat", Detail: "tomcat2"}
			var snap forensics.TierSnapshot
			for i := 0; i < b.N; i++ {
				f.Rec.ObserveAudit(ev)
				f.Rec.RecordSnapshot(snap)
				f.Det.Observe(des.Time(i), 0.1, true)
				f.Det.Tick(des.Time(i))
			}
		}),
		measure("forensics/recorder_snapshot", func(b *testing.B) {
			b.ReportAllocs()
			r := forensics.NewRecorder(forensics.Config{})
			var snap forensics.TierSnapshot
			for i := 0; i < b.N; i++ {
				snap.Time = des.Time(i)
				r.RecordSnapshot(snap)
			}
		}),
		measure("forensics/recorder_audit_event", func(b *testing.B) {
			b.ReportAllocs()
			r := forensics.NewRecorder(forensics.Config{})
			ev := trace.AuditEvent{Kind: trace.AuditScaleOutLaunch, Tier: "tomcat", Detail: "tomcat2"}
			for i := 0; i < b.N; i++ {
				ev.Time = des.Time(i)
				r.ObserveAudit(ev)
			}
		}),
		measure("forensics/detector_observe", func(b *testing.B) {
			// Steady-state windowed-tail feed: 10 samples per simulated
			// second, so the window prunes as fast as it grows.
			b.ReportAllocs()
			d := forensics.NewDetector(forensics.DetectorConfig{})
			for i := 0; i < b.N; i++ {
				d.Observe(des.Time(i)/10, 0.1, true)
			}
		}),
		measure("forensics/detector_tick", func(b *testing.B) {
			// One detector evaluation per op over a populated 10 s window
			// (the per-simulated-second cost of episode detection).
			b.ReportAllocs()
			d := forensics.NewDetector(forensics.DetectorConfig{})
			for i := 0; i < 200; i++ {
				d.Observe(des.Time(i)/10, 0.1, true)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := 20 + des.Time(i)
				for j := 0; j < 10; j++ {
					d.Observe(now, 0.1, true)
				}
				d.Tick(now)
			}
		}),
	)
	fmt.Println("== analytical-twin microbenchmarks (disabled observer hot path must stay 0 allocs/op)")
	twinModel := func() twin.Model {
		wl := rubbos.NewWorkload(rubbos.BrowseOnly, 1)
		return twin.Model{
			Workload:  func() *rubbos.Workload { return wl },
			ThinkTime: 3,
			WebCores:  1, AppCores: 1, DBCores: 1,
			DiskChans: 1,
		}
	}
	results = append(results,
		measure("twin/observe_disabled", func(b *testing.B) {
			b.ReportAllocs()
			o := twin.New(twin.Config{}, twinModel())
			o.SetEnabled(false)
			for i := 0; i < b.N; i++ {
				o.ObserveArrival()
				o.Observe(1, 0.05, true)
			}
		}),
		measure("twin/tick_steady", func(b *testing.B) {
			// One full twin evaluation per op: window harvest, config
			// snapshot, MVA solve at 2500 clients, residuals, drift update.
			b.ReportAllocs()
			o := twin.New(twin.Config{}, twinModel())
			obs := twin.Observation{Clients: 2500,
				Web: twin.TierObs{Ready: 2, CPU: 0.5},
				App: twin.TierObs{Ready: 4, CPU: 0.5},
				DB:  twin.TierObs{Ready: 2, CPU: 0.5}}
			for i := 0; i < b.N; i++ {
				obs.Time += o.Config().Interval
				for j := 0; j < 100; j++ {
					o.ObserveArrival()
					o.Observe(obs.Time, 0.05, true)
				}
				o.Tick(obs)
			}
		}),
		measure("qnet/snapshot_solve", func(b *testing.B) {
			// The twin's analytical core in isolation: build the network
			// from a live-state snapshot and solve the MVA recursion at
			// 2500 clients.
			b.ReportAllocs()
			wl := rubbos.NewWorkload(rubbos.BrowseOnly, 1)
			for i := 0; i < b.N; i++ {
				net, err := qnet.SnapshotNetwork(qnet.LiveState{
					Workload: wl, ThinkTime: 3,
					WebVMs: 1, AppVMs: 2, DBVMs: 1,
					WebCores: 1, AppCores: 1, DBCores: 1,
					DiskChans: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				net.Solve(2500)
			}
		}),
	)
	fmt.Println("== admission-control microbenchmarks (every Admit hot path must stay 0 allocs/op)")
	newPolicy := func(spec string) admission.Policy {
		cfg, err := admission.Parse(spec)
		if err != nil {
			panic(err)
		}
		p, err := admission.New(cfg)
		if err != nil {
			panic(err)
		}
		return p
	}
	results = append(results,
		measure("admission/always_admit", func(b *testing.B) {
			b.ReportAllocs()
			p := newPolicy("always")
			for i := 0; i < b.N; i++ {
				p.Admit(des.Time(i)*des.Millisecond, admission.ClassBrowse, i&1023)
			}
		}),
		measure("admission/queue_cap_admit", func(b *testing.B) {
			b.ReportAllocs()
			p := newPolicy("queue-cap:cap=300")
			for i := 0; i < b.N; i++ {
				p.Admit(des.Time(i)*des.Millisecond, admission.ClassBrowse, i&1023)
			}
		}),
		measure("admission/priority_admit", func(b *testing.B) {
			b.ReportAllocs()
			p := newPolicy("priority:cap=300,browse=75")
			for i := 0; i < b.N; i++ {
				class := admission.ClassBrowse
				if i&1 == 1 {
					class = admission.ClassReadWrite
				}
				p.Admit(des.Time(i)*des.Millisecond, class, i&1023)
			}
		}),
		measure("admission/codel_admit_observe", func(b *testing.B) {
			// One admit decision plus one dequeue-sojourn feedback per
			// op, alternating below/above target so the control law
			// exercises both the reset and the dropping branch.
			b.ReportAllocs()
			p := newPolicy("codel:target=100ms,interval=200ms")
			for i := 0; i < b.N; i++ {
				now := des.Time(i) * des.Millisecond
				sojourn := 50 * des.Millisecond
				if i&1 == 1 {
					sojourn = 250 * des.Millisecond
				}
				p.ObserveDequeue(now, sojourn)
				p.Admit(now, admission.ClassBrowse, i&1023)
			}
		}),
		measure("admission/meter_observe", func(b *testing.B) {
			b.ReportAllocs()
			m := admission.NewMeter(5*des.Second, func(admission.Class, float64) {})
			for i := 0; i < b.N; i++ {
				m.Observe(des.Time(i)*des.Millisecond, admission.ClassBrowse, i&7 == 0)
			}
		}),
	)
	fmt.Println("== request lifecycle (one bare request end to end must stay 0 allocs/op)")
	results = append(results, measure("request/lifecycle", benchRequestLifecycle))
	return results
}

// benchRequestLifecycle is the root package's BenchmarkSimulatorEventRate:
// bare RUBBoS requests through a default 1/1/1 cluster, submitted in
// batches of 1024 and run to completion. A warm-up fills the request
// free list, the queues and the event heap first, so allocs/op is the
// lifecycle's steady state.
func benchRequestLifecycle(b *testing.B) {
	b.ReportAllocs()
	c := cluster.New(cluster.DefaultConfig())
	completed := 0
	done := func(ok bool) {
		if ok {
			completed++
		}
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			c.Submit(done)
			if i%1024 == 1023 {
				c.Eng.Run()
			}
		}
		c.Eng.Run()
	}
	run(4096)
	completed = 0
	b.ResetTimer()
	run(b.N)
	if completed == 0 {
		b.Fatal("no requests completed")
	}
}

// runEndToEnd performs the end-to-end measurements (harness fan-out,
// tracer/telemetry overhead, scale sweep, controller tournament),
// writes the report, and exits nonzero on any identity or
// zero-allocation violation.
func runEndToEnd(rep *Report, short bool, out string) {
	fmt.Println("== experiment harness wall time (sequential vs parallel, byte-identity checked)")
	rep.Harness = measureHarness(short)
	rep.Derived["harness_speedup"] = rep.Harness.Speedup
	fmt.Printf("   %s: sequential %.1fs, parallel %.1fs (workers=%d) -> %.2fx, identical=%v\n",
		rep.Harness.Experiment, rep.Harness.SequentialSec, rep.Harness.ParallelSec,
		rep.Harness.Workers, rep.Harness.Speedup, rep.Harness.OutputsMatch)

	fmt.Println("== tracer overhead end to end (off vs 1/64 sampled vs fully sampled)")
	rep.Tracing = measureTracing(short)
	rep.Derived["tracer_sampled_overhead_pct"] = rep.Tracing.SampledPct
	rep.Derived["tracer_full_overhead_pct"] = rep.Tracing.FullPct
	fmt.Printf("   %s: off %.1fs, sampled %.1fs (+%.1f%%), full %.1fs (+%.1f%%), timeline identical=%v\n",
		rep.Tracing.Experiment, rep.Tracing.OffSec, rep.Tracing.SampledSec, rep.Tracing.SampledPct,
		rep.Tracing.FullSec, rep.Tracing.FullPct, rep.Tracing.TimelineIdentical)

	fmt.Println("== telemetry overhead end to end (bare vs full layer armed)")
	rep.Telemetry = measureTelemetry(short)
	rep.Derived["telemetry_overhead_pct"] = rep.Telemetry.OverheadPct
	fmt.Printf("   %s: off %.1fs, on %.1fs (+%.1f%%, %d scrapes), timeline identical=%v\n",
		rep.Telemetry.Experiment, rep.Telemetry.OffSec, rep.Telemetry.OnSec,
		rep.Telemetry.OverheadPct, rep.Telemetry.Scrapes, rep.Telemetry.TimelineIdentical)

	fmt.Println("== scale mode: client-count sweep (striped byte-identity checked)")
	rep.Scale = measureScale(short)
	experiment.RenderScale(os.Stdout, rep.Scale.Rows)
	fmt.Printf("   striped byte-identical=%v, process peak RSS %.0f MB\n",
		rep.Scale.StripedMatchesSequential, rep.Scale.ProcessPeakRSSMB)
	if n := len(rep.Scale.Rows); n > 0 {
		top := rep.Scale.Rows[n-1]
		rep.Derived["scale_top_clients"] = float64(top.Clients)
		rep.Derived["scale_top_events_per_sec"] = top.EventsPerSec
		rep.Derived["scale_top_peak_heap_mb"] = top.PeakHeapMB
		rep.Derived["scale_heap_growth_ratio"] = top.PeakHeapMB / rep.Scale.Rows[0].PeakHeapMB
	}
	if len(rep.Scale.Curve) > 0 {
		fmt.Println("== striper worker-count scaling curve (conscale cell, trajectory identical at every count)")
		experiment.RenderScale(os.Stdout, rep.Scale.Curve)
		base := rep.Scale.Curve[0]
		for _, r := range rep.Scale.Curve {
			if r.Events != base.Events {
				fmt.Fprintln(os.Stderr, "FAIL: scaling-curve rows executed different event counts")
				os.Exit(1)
			}
			if r.Workers == 4 && r.WallSec > 0 {
				rep.Derived["scale_speedup_4workers"] = base.WallSec / r.WallSec
			}
		}
	}

	fmt.Println("== forensics overhead end to end (bare vs recorder + episode detector armed)")
	rep.Forensics = measureForensics(short)
	rep.Derived["forensics_overhead_pct"] = rep.Forensics.OverheadPct
	fmt.Printf("   %s: off %.1fs, on %.1fs (+%.1f%%, %d episodes, %d snapshots), timeline identical=%v\n",
		rep.Forensics.Experiment, rep.Forensics.OffSec, rep.Forensics.OnSec,
		rep.Forensics.OverheadPct, rep.Forensics.Episodes, rep.Forensics.Snapshots,
		rep.Forensics.TimelineIdentical)

	fmt.Println("== twin overhead end to end (bare vs analytical-twin observer armed)")
	rep.Twin = measureTwin(short)
	rep.Derived["twin_overhead_pct"] = rep.Twin.OverheadPct
	fmt.Printf("   %s: off %.1fs, on %.1fs (+%.1f%%, %d ticks / %d applicable / %d drifts), timeline identical=%v\n",
		rep.Twin.Experiment, rep.Twin.OffSec, rep.Twin.OnSec, rep.Twin.OverheadPct,
		rep.Twin.Ticks, rep.Twin.Applicable, rep.Twin.Drifts, rep.Twin.TimelineIdentical)

	fmt.Println("== admission overhead end to end (bare vs always-admit installed, byte-identity checked)")
	rep.Admission = measureAdmission(short)
	rep.Derived["admission_overhead_pct"] = rep.Admission.OverheadPct
	fmt.Printf("   %s: off %.1fs, always %.1fs (+%.1f%%), timeline identical=%v; %s shed %d (browse %d, rw %d)\n",
		rep.Admission.Experiment, rep.Admission.OffSec, rep.Admission.AlwaysSec,
		rep.Admission.OverheadPct, rep.Admission.TimelineIdentical,
		rep.Admission.ShedPolicy, rep.Admission.Sheds, rep.Admission.BrowseSheds, rep.Admission.RWSheds)

	fmt.Println("== controller-zoo smoke tournament (every controller, one trace)")
	rep.Tournament = measureTournament(short)
	rep.Derived["tournament_controllers"] = float64(len(rep.Tournament.Ranking))
	for _, r := range rep.Tournament.Ranking {
		fmt.Printf("   %-20s p99=%.1fms burn=%.2fmin vm=%.3fh score=%d\n",
			r.Controller, r.MeanP99Ms, r.BurnMin, r.VMHours, r.Score)
	}

	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	if !rep.Harness.OutputsMatch {
		fmt.Fprintln(os.Stderr, "FAIL: parallel harness output diverged from sequential")
		os.Exit(1)
	}
	if !rep.Tracing.TimelineIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: traced run's timeline diverged from the untraced run")
		os.Exit(1)
	}
	if rep.Derived["trace_disabled_allocs_per_op"] != 0 {
		fmt.Fprintln(os.Stderr, "FAIL: disabled tracer hot path allocates")
		os.Exit(1)
	}
	if !rep.Telemetry.TimelineIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: telemetry-armed run's timeline diverged from the bare run")
		os.Exit(1)
	}
	if rep.Derived["telemetry_disabled_allocs_per_op"] != 0 {
		fmt.Fprintln(os.Stderr, "FAIL: disabled telemetry hot path allocates")
		os.Exit(1)
	}
	if !rep.Scale.StripedMatchesSequential {
		fmt.Fprintln(os.Stderr, "FAIL: striped scale run diverged from the sequential fallback")
		os.Exit(1)
	}
	if !rep.Forensics.TimelineIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: forensics-armed run's timeline diverged from the bare run")
		os.Exit(1)
	}
	if rep.Derived["forensics_disabled_allocs_per_op"] != 0 {
		fmt.Fprintln(os.Stderr, "FAIL: disabled forensics hot path allocates")
		os.Exit(1)
	}
	if !rep.Twin.TimelineIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: twin-armed run's timeline diverged from the bare run")
		os.Exit(1)
	}
	if rep.Derived["twin_disabled_allocs_per_op"] != 0 {
		fmt.Fprintln(os.Stderr, "FAIL: disabled twin hot path allocates")
		os.Exit(1)
	}
	if !rep.Admission.TimelineIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: always-admit run's timeline diverged from the bare run")
		os.Exit(1)
	}
	if rep.Derived["admission_admit_allocs_per_op"] != 0 {
		fmt.Fprintln(os.Stderr, "FAIL: admission Admit hot path allocates")
		os.Exit(1)
	}
	if rep.Derived["request_lifecycle_allocs_per_op"] != 0 {
		fmt.Fprintln(os.Stderr, "FAIL: request lifecycle allocates")
		os.Exit(1)
	}
}

// measureAdmission runs the same ConScale Big Spike experiment bare,
// with an explicit always-admit policy installed on the web and app
// tiers — the installed no-op must be byte-identical to no policy at
// all — and with the queue-cap shedder armed to smoke the drop path
// end to end (shed counts recorded, not gated: whether the cap engages
// depends on the configuration's headroom).
func measureAdmission(short bool) Admission {
	duration := 720 * des.Second
	users := 7500
	label := "conscale big-spike (720s)"
	if short {
		duration = 120 * des.Second
		users = 3000
		label = "conscale big-spike (120s smoke)"
	}
	run := func(spec string) (float64, []byte, *experiment.RunResult) {
		cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.BigSpike)
		cfg.Duration = duration
		cfg.MaxUsers = users
		if spec != "" {
			pc, err := admission.Parse(spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			cfg.Admission = map[cluster.Tier]admission.Config{
				cluster.Web: pc,
				cluster.App: pc,
			}
		}
		t0 := time.Now()
		res := experiment.Run(cfg)
		sec := time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return sec, buf.Bytes(), res
	}

	offSec, offCSV, _ := run("")
	alwaysSec, alwaysCSV, _ := run("always")
	const shedSpec = "queue-cap:cap=300"
	_, _, shedRes := run(shedSpec)

	return Admission{
		Experiment:        label,
		OffSec:            offSec,
		AlwaysSec:         alwaysSec,
		OverheadPct:       100 * (alwaysSec - offSec) / offSec,
		TimelineIdentical: bytes.Equal(offCSV, alwaysCSV),
		ShedPolicy:        shedSpec,
		Sheds:             shedRes.Sheds,
		BrowseSheds:       shedRes.ShedsByClass[admission.ClassBrowse],
		RWSheds:           shedRes.ShedsByClass[admission.ClassReadWrite],
	}
}

// measureTournament runs the controller-zoo smoke tournament: every
// registered controller on the big-spike trace at one tier — the
// schema-6 tournament block. The full factorial lives in `experiments
// -run tournament`.
func measureTournament(short bool) Tournament {
	cfg := experiment.TournamentConfig{
		Traces:   []string{workload.BigSpike},
		Tiers:    []int{2500},
		Duration: 300 * des.Second,
	}
	label := "all controllers x big-spike x 2500, 300s"
	if short {
		cfg.Duration = 120 * des.Second
		label = "all controllers x big-spike x 2500, 120s smoke"
	}
	res := experiment.RunTournament(cfg)
	return Tournament{Factorial: label, Ranking: res.Ranking, Cells: res.Cells}
}

// measureHarness times the Table 1 run matrix (the harness's dominant
// cost) sequentially and under the worker pool, and verifies the rendered
// outputs are byte-identical.
func measureHarness(short bool) Harness {
	duration := 720 * des.Second
	users := 7500
	label := "table1 matrix (6 traces x 2 controllers, 720s)"
	if short {
		duration = 120 * des.Second
		users = 3000
		label = "table1 matrix (6 traces x 2 controllers, 120s smoke)"
	}
	cfgs := make([]experiment.RunConfig, 0, 12)
	for _, tr := range workload.Names() {
		for _, mode := range []scaling.Mode{scaling.EC2, scaling.ConScale} {
			cfg := experiment.DefaultRunConfig(mode, tr)
			cfg.Duration = duration
			cfg.MaxUsers = users
			cfgs = append(cfgs, cfg)
		}
	}
	render := func() []byte {
		var buf bytes.Buffer
		for _, res := range experiment.RunMany(cfgs) {
			experiment.RenderRunSummary(&buf, res)
		}
		return buf.Bytes()
	}

	workers := runtime.GOMAXPROCS(0)
	experiment.SetMaxWorkers(1)
	t0 := time.Now()
	seq := render()
	seqSec := time.Since(t0).Seconds()

	experiment.SetMaxWorkers(workers)
	t0 = time.Now()
	par := render()
	parSec := time.Since(t0).Seconds()

	return Harness{
		Experiment:    label,
		Workers:       workers,
		SequentialSec: seqSec,
		ParallelSec:   parSec,
		Speedup:       seqSec / parSec,
		OutputsMatch:  bytes.Equal(seq, par),
	}
}

// measureTracing runs the same ConScale Large Variations experiment with
// the tracer off, head-sampled at the canonical 1/64, and fully sampled,
// and verifies tracing never perturbs the client-observed timeline.
func measureTracing(short bool) Tracing {
	duration := 720 * des.Second
	users := 7500
	label := "conscale large-variations (720s)"
	if short {
		duration = 120 * des.Second
		users = 3000
		label = "conscale large-variations (120s smoke)"
	}
	run := func(rate float64) (float64, []byte) {
		cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Duration = duration
		cfg.MaxUsers = users
		if rate > 0 {
			cfg.Tracing = &trace.Config{SampleRate: rate}
		}
		t0 := time.Now()
		res := experiment.Run(cfg)
		sec := time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return sec, buf.Bytes()
	}

	offSec, offCSV := run(0)
	sampledSec, sampledCSV := run(1.0 / 64)
	fullSec, fullCSV := run(1)

	return Tracing{
		Experiment:        label,
		OffSec:            offSec,
		SampledSec:        sampledSec,
		FullSec:           fullSec,
		SampledPct:        100 * (sampledSec - offSec) / offSec,
		FullPct:           100 * (fullSec - offSec) / offSec,
		TimelineIdentical: bytes.Equal(offCSV, sampledCSV) && bytes.Equal(offCSV, fullCSV),
	}
}

// measureTelemetry runs the same ConScale Large Variations experiment bare
// and with the full telemetry layer armed — registry, stack collectors,
// the 5 s sim-time scraper, and the SLO burn-rate monitor — and verifies
// observation never perturbs the client-observed timeline.
func measureTelemetry(short bool) Telemetry {
	duration := 720 * des.Second
	users := 7500
	label := "conscale large-variations (720s)"
	if short {
		duration = 120 * des.Second
		users = 3000
		label = "conscale large-variations (120s smoke)"
	}
	run := func(armed bool) (float64, []byte, int) {
		cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Duration = duration
		cfg.MaxUsers = users
		if armed {
			cfg.Telemetry = &experiment.TelemetryOptions{}
		}
		t0 := time.Now()
		res := experiment.Run(cfg)
		sec := time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var scrapes int
		if res.Scraper != nil {
			scrapes = res.Scraper.Scrapes()
		}
		return sec, buf.Bytes(), scrapes
	}

	offSec, offCSV, _ := run(false)
	onSec, onCSV, scrapes := run(true)

	return Telemetry{
		Experiment:        label,
		OffSec:            offSec,
		OnSec:             onSec,
		OverheadPct:       100 * (onSec - offSec) / offSec,
		Scrapes:           scrapes,
		TimelineIdentical: bytes.Equal(offCSV, onCSV),
	}
}

// measureForensics runs the same ConScale Large Variations experiment
// bare and with the forensics layer armed — flight-recorder rings, the
// 1 s snapshot ticker, and the episode detector — and verifies the
// always-on observer never perturbs the client-observed timeline.
func measureForensics(short bool) Forensics {
	duration := 720 * des.Second
	users := 7500
	label := "conscale large-variations (720s)"
	if short {
		duration = 120 * des.Second
		users = 3000
		label = "conscale large-variations (120s smoke)"
	}
	run := func(armed bool) (float64, []byte, *experiment.RunResult) {
		cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Duration = duration
		cfg.MaxUsers = users
		if armed {
			cfg.Tracing = &trace.Config{SampleRate: 1.0 / 64}
			cfg.Forensics = &forensics.Config{}
		}
		t0 := time.Now()
		res := experiment.Run(cfg)
		sec := time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return sec, buf.Bytes(), res
	}

	offSec, offCSV, _ := run(false)
	onSec, onCSV, res := run(true)

	var episodes int
	var snaps uint64
	if res.Forensics != nil {
		episodes = len(res.Forensics.Det.Episodes())
		snaps, _, _, _, _ = res.Forensics.Rec.Counts()
	}
	return Forensics{
		Experiment:        label,
		OffSec:            offSec,
		OnSec:             onSec,
		OverheadPct:       100 * (onSec - offSec) / offSec,
		Episodes:          episodes,
		Snapshots:         snaps,
		TimelineIdentical: bytes.Equal(offCSV, onCSV),
	}
}

// measureTwin runs the same ConScale Large Variations experiment bare
// and with the analytical-twin observer armed — the 5 s snapshot/solve
// ticker plus the per-request taps — and verifies the observer never
// perturbs the client-observed timeline.
func measureTwin(short bool) Twin {
	duration := 720 * des.Second
	users := 7500
	label := "conscale large-variations (720s)"
	if short {
		duration = 120 * des.Second
		users = 3000
		label = "conscale large-variations (120s smoke)"
	}
	run := func(armed bool) (float64, []byte, *experiment.RunResult) {
		cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
		cfg.Duration = duration
		cfg.MaxUsers = users
		if armed {
			cfg.Twin = &twin.Config{}
		}
		t0 := time.Now()
		res := experiment.Run(cfg)
		sec := time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := experiment.WriteTimelineCSV(&buf, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return sec, buf.Bytes(), res
	}

	offSec, offCSV, _ := run(false)
	onSec, onCSV, res := run(true)

	t := Twin{
		Experiment:        label,
		OffSec:            offSec,
		OnSec:             onSec,
		OverheadPct:       100 * (onSec - offSec) / offSec,
		TimelineIdentical: bytes.Equal(offCSV, onCSV),
	}
	if res.Twin != nil {
		t.Ticks = res.Twin.Ticks()
		t.Applicable = res.Twin.Applicable()
		t.Drifts = res.Twin.DriftCount()
	}
	return t
}

// measureScale runs the scale-mode client-count sweep — {10k, 100k, 1M}
// × {EC2, DCM, ConScale}, or the 10k tier only under -short — verifies
// the striped worker pool is byte-identical to the sequential fallback
// on a reduced configuration, and records the worker-count scaling
// curve on the ConScale cell (1/2/4/8 pinned workers, 100k clients, or
// 1/2/4 at 10k under -short).
func measureScale(short bool) Scale {
	tiers := []int{10_000, 100_000, 1_000_000}
	label := "{10k,100k,1M} clients x {ec2,dcm,conscale}, 16 cells, 120s"
	curveClients := 100_000
	curveWorkers := []int{1, 2, 4, 8}
	if short {
		tiers = []int{10_000}
		label = "10k clients x {ec2,dcm,conscale}, 16 cells, 120s smoke"
		curveClients = 10_000
		curveWorkers = []int{1, 2, 4}
	}
	var rows []experiment.ScaleRow
	for _, clients := range tiers {
		for _, mode := range []scaling.Mode{scaling.EC2, scaling.DCM, scaling.ConScale} {
			cfg := experiment.DefaultScaleConfig(mode, clients)
			res := experiment.RunScale(cfg)
			fmt.Printf("   %s x %d: wall=%.1fs events=%d heap=%.1fMB p99=%.0fms\n",
				mode, clients, res.WallSec, res.Events,
				float64(res.PeakHeapBytes)/(1<<20), res.P99*1000)
			rows = append(rows, res.Row())
		}
	}

	var curve []experiment.ScaleRow
	for _, workers := range curveWorkers {
		cfg := experiment.DefaultScaleConfig(scaling.ConScale, curveClients)
		cfg.Workers = workers
		res := experiment.RunScale(cfg)
		fmt.Printf("   curve conscale x %d, workers=%d: wall=%.1fs events=%d\n",
			curveClients, res.Workers, res.WallSec, res.Events)
		curve = append(curve, res.Row())
	}

	// Identity check on a reduced configuration with the worker pool
	// forced wide, so the parallel path fans out even on 1-CPU runners.
	identity := func(workers int) []byte {
		cfg := experiment.DefaultScaleConfig(scaling.ConScale, 3000)
		cfg.Cells = 4
		cfg.Duration = 30 * des.Second
		cfg.Workers = workers
		var buf bytes.Buffer
		experiment.WriteScaleTimelineCSV(&buf, experiment.RunScale(cfg))
		return buf.Bytes()
	}
	seq := identity(1)
	par := identity(4)

	return Scale{
		Sweep:                    label,
		Rows:                     rows,
		Curve:                    curve,
		StripedMatchesSequential: bytes.Equal(seq, par),
		ProcessPeakRSSMB:         float64(experiment.ProcessPeakRSS()) / (1 << 20),
	}
}
