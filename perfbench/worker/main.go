// Command worker runs one perfbench workload once, in its own process, and
// prints one JSON record on standard output: the digest of the simulated
// output, the host cost of the run call, and, on a profiled run, the CPU
// nanoseconds of the run call by layer plus the SCT replay timings.
//
// perfbench/run.py builds and drives it; see perfbench/README.md. Direct use:
//
//	worker -workload paper-conscale -seed 1
//	worker -workload scale-100k -seed 1 -workers 2 -profile cpu.pprof
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"conscale/internal/admission"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/forensics"
	cmetrics "conscale/internal/metrics"
	"conscale/internal/scaling"
	"conscale/internal/sct"
	"conscale/internal/trace"
	"conscale/internal/twin"
	"conscale/internal/workload"
)

// outcome is what a finished run call leaves for the record: its digest
// and the counts the entry points report.
type outcome struct {
	digest    string
	requests  int64 // simulated client requests issued: ok + failed + shed
	sheds     uint64
	actions   int
	events    uint64
	counts    map[string]uint64
	warehouse *cmetrics.Warehouse // retained SCT windows (Run workloads only)
}

// prepare does everything before simulated time starts and returns the run
// call; the run call returns a function that summarises its result once the
// clock has stopped.
type prepare func(seed uint64, workers int) (func() func() outcome, error)

var workloads = map[string]prepare{
	"paper-conscale": paperConscale,
	"scale-100k":     scale100k,
	"armed-dcm":      armedDCM,
}

// paperConscale is the Fig. 10 / Table I ConScale run: 7,500 closed-loop
// users on the large-variations trace for 720 simulated seconds.
func paperConscale(seed uint64, _ int) (func() func() outcome, error) {
	cfg := experiment.DefaultRunConfig(scaling.ConScale, workload.LargeVariations)
	cfg.Seed = seed
	eng := hostEngine(&cfg, cluster.DefaultConfig())
	return func() func() outcome {
		res := experiment.Run(cfg)
		return func() outcome { return runOutcome(res, eng) }
	}, nil
}

// armedDCM is the Fig. 11 scenario (offline DCM profile, halved production
// dataset) with every optional layer armed and priority admission on the
// web and app tiers. Profile training is set-up.
func armedDCM(seed uint64, _ int) (func() func() outcome, error) {
	adm, err := admission.Parse("priority:cap=300,browse=75")
	if err != nil {
		return nil, err
	}
	fcfg := scaling.DefaultConfig(scaling.DCM)
	fcfg.Profile = experiment.TrainDCM(seed, cluster.DefaultConfig())

	cfg := experiment.DefaultRunConfig(scaling.DCM, workload.LargeVariations)
	cfg.Seed = seed
	cfg.Framework = &fcfg
	cfg.Admission = map[cluster.Tier]admission.Config{cluster.Web: adm, cluster.App: adm}
	cfg.Tracing = &trace.Config{SampleRate: 1}
	cfg.Telemetry = &experiment.TelemetryOptions{}
	cfg.Forensics = &forensics.Config{}
	cfg.Twin = &twin.Config{}
	ccfg := cluster.DefaultConfig()
	ccfg.DatasetScale = 0.5
	eng := hostEngine(&cfg, ccfg)
	return func() func() outcome {
		res := experiment.Run(cfg)
		return func() outcome { return runOutcome(res, eng) }
	}, nil
}

// scale100k is the 100k-client scale cell: a streaming open-loop
// population over 16 ConScale cells on the striper.
func scale100k(seed uint64, workers int) (func() func() outcome, error) {
	if n := runtime.NumCPU(); workers > n {
		return nil, fmt.Errorf("scale-100k: %d striper workers requested but only %d CPUs available", workers, n)
	}
	cfg := experiment.DefaultScaleConfig(scaling.ConScale, 100_000)
	cfg.Seed = seed
	cfg.Workers = workers
	return func() func() outcome {
		res := experiment.RunScale(cfg)
		return func() outcome { return scaleOutcome(res) }
	}, nil
}

// hostEngine places a Run workload's cluster on an engine the benchmark
// holds, through the public cluster.Config.Engine hook, so the run's event
// count can be read afterwards. The digest check confirms the trajectory
// is the one a fresh engine gives.
func hostEngine(cfg *experiment.RunConfig, ccfg cluster.Config) *des.Engine {
	eng := des.New()
	ccfg.Engine = eng
	cfg.Cluster = &ccfg
	return eng
}

func runOutcome(res *experiment.RunResult, eng *des.Engine) outcome {
	h := sha256.New()
	if err := experiment.WriteTimelineCSV(h, res); err != nil {
		panic(err) // hash writes cannot fail
	}
	fmt.Fprintf(h, "p50=%v p95=%v p99=%v goodput=%d error_rate=%v sheds=%v actions=%d\nvms=%v\nsoft=%v\n",
		res.P50, res.P95, res.P99, res.Goodput, res.ErrorRate, res.ShedsByClass, len(res.Events), res.VMs, res.SoftHistory)
	var snapshots uint64
	if res.Forensics != nil {
		snapshots = uint64(len(res.Forensics.Rec.Snapshots()))
	}
	_, sampled, _, _ := res.Tracer.Stats()
	return outcome{
		digest: hex.EncodeToString(h.Sum(nil)),
		// Every finished request leaves one sample and ErrorRate is the
		// failed share of them, so this recovers the sample count exactly.
		requests: int64(math.Round(float64(res.Goodput) / (1 - res.ErrorRate))),
		sheds:    res.Sheds,
		actions:  len(res.Events),
		events:   eng.Fired(),
		counts: map[string]uint64{
			"trace.sampled":       sampled,
			"telemetry.scrapes":   uint64(res.Scraper.Scrapes()),
			"forensics.snapshots": snapshots,
			"twin.ticks":          res.Twin.Ticks(),
		},
		warehouse: res.Warehouse,
	}
}

func scaleOutcome(res *experiment.ScaleResult) outcome {
	h := sha256.New()
	experiment.WriteScaleTimelineCSV(h, res)
	fmt.Fprintf(h, "p50=%v p95=%v p99=%v goodput=%d error_rate=%v sheds=%v actions=%d vms=%d requests=%d\n",
		res.P50, res.P95, res.P99, res.Goodput, res.ErrorRate, res.ShedsByClass, res.ScaleActions, res.VMs, res.Requests)
	return outcome{
		digest:   hex.EncodeToString(h.Sum(nil)),
		requests: res.Requests,
		sheds:    res.Sheds,
		actions:  res.ScaleActions,
		events:   res.Events,
		counts: map[string]uint64{
			"trace.sampled":       0,
			"telemetry.scrapes":   0,
			"forensics.snapshots": 0,
			"twin.ticks":          0,
		},
	}
}

// runtimeCounters are the runtime/metrics counters read around the run
// call, by the key the record reports them under.
var runtimeCounters = [...]struct{ key, name string }{
	{"allocs", "/gc/heap/allocs:objects"},
	{"alloc_bytes", "/gc/heap/allocs:bytes"},
	{"gc_cycles", "/gc/cycles/total:gc-cycles"},
	{"gc_cpu_s", "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, c := range runtimeCounters {
		s[i].Name = c.name
	}
	metrics.Read(s)
	out := make(map[string]float64, len(s))
	for i, c := range runtimeCounters {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[c.key] = s[i].Value.Float64()
		} else {
			out[c.key] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// cpuSeconds is the user + system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad "who" or pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// replaySCT times sct.Estimator.Estimate over the run's retained 50 ms
// windows, cut per server into collection-window slices as the online loop
// sees them. It reports the mean time and heap allocations per call.
func replaySCT(wh *cmetrics.Warehouse) (usPerCall, allocsPerCall float64) {
	if wh == nil {
		return 0, 0
	}
	est := sct.New(sct.DefaultConfig())
	span := est.Config().CollectionWindow
	var slices [][]cmetrics.WindowSample
	servers := wh.Servers()
	sort.Strings(servers)
	for _, s := range servers {
		all := wh.FineSince(s, 0)
		for lo := 0; lo < len(all); {
			hi := lo
			for hi < len(all) && all[hi].Start < all[lo].Start+span {
				hi++
			}
			slices = append(slices, all[lo:hi])
			lo = hi
		}
	}
	if len(slices) == 0 {
		return 0, 0
	}
	calls := 0
	before := readCounters()
	start := time.Now()
	for calls == 0 || time.Since(start) < 300*time.Millisecond {
		for _, s := range slices {
			est.Estimate(s)
			calls++
		}
	}
	elapsed := time.Since(start)
	after := readCounters()
	return float64(elapsed.Microseconds()) / float64(calls), (after["allocs"] - before["allocs"]) / float64(calls)
}

type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Workers      int                `json:"workers"`
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	RunStartNS   int64              `json:"run_start_unix_ns"`
	WallS        float64            `json:"wall_s"`
	CPUS         float64            `json:"cpu_s"`
	PeakRSSBytes uint64             `json:"peak_rss_bytes"`
	Requests     int64              `json:"requests"`
	Sheds        uint64             `json:"sheds"`
	Actions      int                `json:"actions"`
	Events       uint64             `json:"events"`
	Digest       string             `json:"digest"`
	Runtime      map[string]float64 `json:"runtime"`
	Counts       map[string]uint64  `json:"counts"`
	CPUNS        map[string]int64   `json:"cpu_ns,omitempty"`
	Replay       map[string]float64 `json:"replay,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-conscale, scale-100k or armed-dcm")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 2, "striper workers (scale-100k only; at most the CPU count)")
	profile := flag.String("profile", "", "write a CPU profile of the run call to this file and report per-layer CPU shares")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *workers, *profile); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed uint64, workers int, profile string) error {
	prep, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if workers < 1 {
		return errors.New("-workers must be at least 1")
	}
	call, err := prep(seed, workers)
	if err != nil {
		return err
	}

	var pf *os.File
	if profile != "" {
		if pf, err = os.Create(profile); err != nil {
			return err
		}
		defer pf.Close()
	}
	rec := record{Workload: name, Seed: seed, Workers: workers, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	before, cpu0 := readCounters(), cpuSeconds()
	if pf != nil {
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
	}
	t0 := time.Now()
	rec.RunStartNS = t0.UnixNano()
	finish := call()
	rec.WallS = time.Since(t0).Seconds()
	if pf != nil {
		pprof.StopCPUProfile()
	}
	rec.CPUS = cpuSeconds() - cpu0
	after := readCounters()
	rec.PeakRSSBytes = experiment.ProcessPeakRSS()

	out := finish()
	rec.Digest, rec.Requests, rec.Sheds, rec.Actions, rec.Events, rec.Counts =
		out.digest, out.requests, out.sheds, out.actions, out.events, out.counts
	rec.Runtime = make(map[string]float64, len(after))
	for k, v := range after {
		rec.Runtime[k] = v - before[k]
	}
	if pf != nil {
		if err := pf.Close(); err != nil {
			return err
		}
		samples, err := readProfile(profile)
		if err != nil {
			return fmt.Errorf("reading CPU profile: %w", err)
		}
		rec.CPUNS = layerCPU(samples)
		us, allocs := replaySCT(out.warehouse)
		rec.Replay = map[string]float64{"sct.estimate_us": us, "sct.estimate_allocs": allocs}
	}
	return json.NewEncoder(w).Encode(rec)
}
