#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Builds perfbench/worker from source, runs one workload in fresh worker
processes, checks every run's simulated-output digest against the recorded
reference, and prints the metrics named in BENCHMARK.json. Run it from the
root of the repository:

    python3 perfbench/run.py --workload armed-dcm --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload scale-100k --seed 1 --trace 1
    python3 perfbench/run.py --steady 10 --seed 1
    python3 perfbench/run.py --steady 5 --workload paper-conscale
    python3 perfbench/run.py --record 0-31

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment. See perfbench/README.md for the metrics and the workloads.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "perfbench-worker")
RESULTS = os.path.join(BUILD, "results")
REFERENCES = os.path.join(HERE, "references.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every workload the worker runs. BENCHMARK.json lists the ones a
# benchmark pass measures; paper-conscale is run only when named.
WORKLOADS = ("paper-conscale", "scale-100k", "armed-dcm")
STRIPER_WORKERS = 2  # scale-100k; the worker refuses more than the CPU count
MIN_REPEATS = 3  # worker processes per timed run, whatever --seconds says
MAX_REPEATS = 16
TRACE_ROUNDS = 3  # rounds of a traced run, one process per variant each
RUN_TIMEOUT_S = 55  # one worker process; about 4x the slowest workload
BUILD_TIMEOUT_S = 840

# Layers that get a <layer>.cpu_share metric. Profile samples charged to any
# other layer are folded into other.cpu_share, so the shares sum to 1.
CPU_LAYERS = (
    "server", "cluster", "lb", "rng", "rubbos", "des", "workload", "metrics",
    "stats", "sla", "sct", "scaling", "controller", "trace", "telemetry",
    "forensics", "twin", "qnet", "admission", "experiment", "runtime.gc",
    "runtime.sched",
)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC}: {e}")


def load_references():
    try:
        with open(REFERENCES) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}
    except ValueError as e:
        raise BenchError(f"cannot parse {REFERENCES}: {e}")


def go_env():
    """The go command's environment, with every cache and config it writes
    kept inside the checkout and no toolchain or module downloads."""
    return dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )


def build():
    os.makedirs(BUILD, exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", WORKER, "./worker"], cwd=HERE, env=go_env(),
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"building the worker: {e}")
    if proc.returncode != 0:
        raise BenchError("building the worker failed:\n" + proc.stderr)


def run_worker(workload, seed, workers=STRIPER_WORKERS, profile=None):
    """Runs the workload once in a fresh process. Returns its record, with
    setup_s added, or None if the process failed."""
    cmd = [WORKER, "-workload", workload, "-seed", str(seed), "-workers", str(workers)]
    if profile:
        cmd += ["-profile", profile]
    spawned = time.time_ns()
    try:
        # The go environment lets a profiled worker run `go tool pprof`.
        proc = subprocess.run(cmd, cwd=ROOT, env=go_env(), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: worker timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed}: worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return None
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{workload} seed {seed}: unreadable worker output:\n{proc.stdout[-2000:]}")
        return None
    # Both clocks are the host's realtime clock: process start, runtime
    # init and everything the workload prepares count as set-up.
    rec["setup_s"] = (rec["run_start_unix_ns"] - spawned) / 1e9
    return rec


class DigestCheck:
    """Checks each run's digest against the recorded reference for its seed.
    For a seed without a reference, every run must match the first one."""

    def __init__(self, references, workload, seed):
        self.want = references.get(workload, {}).get(str(seed))
        self.label = f"{workload} seed {seed}"
        if self.want is None:
            log(f"{self.label}: no recorded reference; checking that runs agree with each other")

    def ok(self, rec):
        if rec is None:
            return False
        if self.want is None:
            self.want = rec["digest"]
        if rec["digest"] != self.want:
            log(f"{self.label}: digest {rec['digest']} differs from reference {self.want}")
            return False
        return True


def end_to_end(rec):
    return {
        "wall_s": rec["wall_s"],
        "sim_req_per_s": rec["requests"] / rec["wall_s"],
        "cpu_s": rec["cpu_s"],
        "peak_rss_mb": rec["peak_rss_bytes"] / 1e6,
        "setup_s": rec["setup_s"],
    }


def timed_run(workload, seed, seconds, references):
    """Repeats the workload in fresh processes for about `seconds` (at least
    MIN_REPEATS times) and reports the median of each end-to-end metric.
    Another process starts while it is expected to end within half a
    process of `seconds`, so a slow workload gets one more sample rather
    than a run that stops well short of `seconds`."""
    check = DigestCheck(references, workload, seed)
    recs, attempted, failed, took = [], 0, 0, []
    start = time.monotonic()
    while attempted < MAX_REPEATS:
        elapsed = time.monotonic() - start
        if attempted >= MIN_REPEATS and elapsed + statistics.mean(took) / 2 > seconds:
            break
        attempted += 1
        t = time.monotonic()
        rec = run_worker(workload, seed)
        took.append(time.monotonic() - t)
        if not check.ok(rec):
            failed += 1
            break  # the run is incorrect already; stop within the time limit
        recs.append(rec)
    per_run = [end_to_end(r) for r in recs]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]} if per_run else {}
    return attempted, failed, metrics, recs


def traced_run(workload, seed, references):
    """Runs TRACE_ROUNDS rounds of an untraced process, a profiled one and,
    on scale-100k, a one-worker one. Reports the per-layer metrics: CPU
    shares from the pooled profiles, everything timed as a median."""
    check = DigestCheck(references, workload, seed)
    os.makedirs(RESULTS, exist_ok=True)
    variants = ["base", "profiled"] + (["one_worker"] if workload == "scale-100k" else [])
    runs = {v: [] for v in variants}
    attempted = 0
    for i in range(TRACE_ROUNDS):
        for v in variants:
            attempted += 1
            if v == "profiled":
                rec = run_worker(workload, seed, profile=os.path.join(RESULTS, f"{workload}-seed{seed}-{i}.pprof"))
            else:
                rec = run_worker(workload, seed, workers=1 if v == "one_worker" else STRIPER_WORKERS)
            if not check.ok(rec):
                return attempted, 1, {}, [r for rs in runs.values() for r in rs]
            runs[v].append(rec)
    recs = [r for rs in runs.values() for r in rs]
    base, prof = runs["base"], runs["profiled"]

    def med(rs, f):
        return statistics.median(f(r) for r in rs)

    cpu_ns = collections.Counter()
    for r in prof:
        cpu_ns.update(r["cpu_ns"])
    total = sum(cpu_ns.values())
    if total <= 0:
        log(f"{workload} seed {seed}: the CPU profiles hold no samples")
        return attempted, 1, {}, recs
    # The worker charges every sample to one layer, so the shares sum to 1.
    m = {f"{layer}.cpu_share": cpu_ns[layer] / total for layer in CPU_LAYERS}
    m["other.cpu_share"] = sum(v for k, v in cpu_ns.items() if k not in CPU_LAYERS) / total

    # Counts are the same in every run of a seed; timings are medians.
    req, events, wall = base[0]["requests"], base[0]["events"], med(base, lambda r: r["wall_s"])
    m["runtime.allocs_per_req"] = med(base, lambda r: r["runtime"]["allocs"]) / req
    m["runtime.alloc_bytes_per_req"] = med(base, lambda r: r["runtime"]["alloc_bytes"]) / req
    m["runtime.gc_cycles"] = med(base, lambda r: r["runtime"]["gc_cycles"])
    m["runtime.gc_cpu_s"] = med(base, lambda r: r["runtime"]["gc_cpu_s"])
    m["des.events"] = events
    m["des.events_per_req"] = events / req
    m["des.ns_per_event"] = wall * 1e9 / events
    # Striper metrics exist only where the striper runs; 0 elsewhere.
    one = runs.get("one_worker")
    m["des.striper_speedup"] = med(one, lambda r: r["wall_s"]) / wall if one else 0.0
    m["des.striper_cpu_per_wall"] = med(base, lambda r: r["cpu_s"] / r["wall_s"]) if one else 0.0
    m["scaling.actions"] = base[0]["actions"]
    m["sct.estimate_us"] = med(prof, lambda r: r["replay"]["sct.estimate_us"])
    m["sct.estimate_allocs"] = med(prof, lambda r: r["replay"]["sct.estimate_allocs"])
    m.update(prof[0]["counts"])
    m["admission.shed_share"] = base[0]["sheds"] / req
    m["bench.profile_overhead_pct"] = (med(prof, lambda r: r["wall_s"]) / wall - 1) * 100
    return attempted, 0, m, recs


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed, recs):
    rec = next((r for r in recs if r), {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "gomaxprocs": rec.get("gomaxprocs"),
        "go_version": rec.get("go_version"),
        "cpu_model": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(),
        "striper_workers": STRIPER_WORKERS,
    }


def measure(spec, references, workload, seed, seconds, trace):
    """One benchmark run. Returns the result object and the environment
    record, and writes both with every worker record under RESULTS."""
    if trace:
        attempted, failed, values, recs = traced_run(workload, seed, references)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values, recs = timed_run(workload, seed, seconds, references)
        wanted = spec["end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if values:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(seed, recs)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump({"environment": env, "result": result, "runs": recs}, f, indent=1)
    return result, env


def steady(spec, references, workloads, seed, rounds, seconds):
    """Runs every workload `rounds` times on one seed, alternating the
    workload order between rounds, and reports each end-to-end metric's
    median, quartiles and spread (IQR / median) against its bound. The seed
    is fixed so that the spread is run-to-run noise only."""
    values = {w: {} for w in workloads}
    failures = 0
    env = None
    for i in range(rounds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result, env = measure(spec, references, w, seed, seconds, trace=False)
            failures += result["failed"]
            log(f"round {i + 1}/{rounds} {w}: " + json.dumps(result))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": env, "rounds": rounds, "seed": seed, "failed_runs": failures, "workloads": {}}
    print(f"{'workload':16} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for w in workloads:
        report["workloads"][w] = {}
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "OVER" if spread > bounds[name] else ""
            report["workloads"][w][name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "over": bool(flag)}
            print(f"{w:16} {name:14} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bounds[name]:6.2f} {flag}")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"steady-{'+'.join(workloads)}-seed{seed}-x{rounds}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"failed_runs": failures, "report": os.path.relpath(path, ROOT)}))
    return failures == 0


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(references, workloads, seeds):
    """Records the digest of one untraced run per workload and seed."""
    for seed in seeds:
        for w in workloads:
            rec = run_worker(w, seed)
            if rec is None:
                raise BenchError(f"{w} seed {seed}: run failed, nothing recorded")
            old = references.setdefault(w, {}).get(str(seed))
            if old and old != rec["digest"]:
                log(f"{w} seed {seed}: reference changes from {old} to {rec['digest']}")
            references[w][str(seed)] = rec["digest"]
            log(f"{w} seed {seed}: {rec['digest']}")
    for w in references:
        references[w] = dict(sorted(references[w].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, help="the workload to run; with --steady or --record, default those in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="how long a timed run repeats its workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N", help="steadiness mode: N rounds on --seed")
    p.add_argument("--record", metavar="SEEDS", help="record reference digests for seeds such as 0-31 or 1,2")
    args = p.parse_args()
    if not (args.workload or args.steady or args.record):
        p.error("--workload is required")
    if args.steady is not None and args.steady < 2:
        p.error("--steady needs at least 2 rounds for quartiles")

    try:
        spec = load_spec()
        references = load_references()
        workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        build()
        if args.record:
            record(references, workloads, parse_seeds(args.record))
            return 0
        if args.steady:
            return 0 if steady(spec, references, workloads, args.seed, args.steady, seconds) else 1
        result, env = measure(spec, references, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
