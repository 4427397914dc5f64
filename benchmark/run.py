#!/usr/bin/env python3
"""End-to-end benchmark of the dyndisp simulator (see README.md).

One measured run of one workload (the BENCHMARK.json command):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last stdout line, {"correct", "attempted", "failed",
"metrics"}: the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer metrics with --trace 1.

Every workload, fixed repetitions, a result file, an optional comparison:

    benchmark/run.sh [--reps=5] [--seed=11] [--workloads=a,b] [--lanes=L]
                     [--out=FILE] [--compare=OLD.json] [--smoke] [--pin]

Both build benchmark/ (and the library it links) into .bench_build/ first,
run every repetition in a fresh child process, and fail a repetition whose
simulation did not disperse, broke Theorem 4, or differs from another
repetition of the same instances, from the traced repetition, from the
other lane count, or from benchmark/pinned.json.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BENCH_DIR, "out")
PINNED_PATH = os.path.join(BENCH_DIR, "pinned.json")
EXE = os.path.join(BUILD_DIR, "dyndisp_benchmark")

WORKLOADS = ["churn", "churn-par", "replay", "trap", "clique", "ring", "sweep"]
REP_BUDGET_S = 120.0     # a repetition running longer is killed and failed
RUN_LIMIT_S = 170.0      # a single run stays under the 180 s limit
MIN_REPS = 3             # single run: repetitions, at least


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def default_lanes():
    """Up to 4 lanes on half the CPUs: a repetition then picks the quietest
    half (main.cpp), which keeps it off hyperthreads whose siblings are busy."""
    return max(1, min(4, nproc() // 2))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- build ----

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/CMakeLists.txt) not found "
                         "next to benchmark/; nothing to build")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, nproc()))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "dyndisp_benchmark", "-j", jobs],
                   check=True, stdout=sys.stderr)


def build_info():
    out = subprocess.run([EXE, "--info"], check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


# ----------------------------------------------------------- repetition ----

class Rep:
    """One child process: its JSON document, or why it failed."""

    def __init__(self, workload, seed, traced):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.doc = None
        self.error = None
        self.rss_mb = 0.0
        self.elapsed_s = 0.0

    @property
    def ok(self):
        return self.error is None

    @property
    def wall_s(self):
        return self.doc["wall_ns"] / 1e9

    @property
    def setup_s(self):
        return statistics.median(self.doc["setup_ns"]) / 1e9


_store_counter = [0]


def run_rep(workload, seed, lanes, smoke, traced, budget=REP_BUDGET_S):
    """Runs one repetition in a fresh child; never raises for its failure."""
    rep = Rep(workload, seed, traced)
    cmd = [EXE, f"--workload={workload}", f"--seed={seed}", f"--lanes={lanes}"]
    if smoke:
        cmd.append("--smoke")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd.append(f"--trace={os.path.join(OUT_DIR, f'trace-{workload}.jsonl')}")
    store = None
    if workload == "sweep":
        _store_counter[0] += 1
        store = os.path.join(BUILD_DIR, "stores",
                             f"{os.getpid()}-{_store_counter[0]}")
        shutil.rmtree(store, ignore_errors=True)
        os.makedirs(os.path.dirname(store), exist_ok=True)
        cmd.append(f"--store={store}")
    start = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(max(budget, 1.0), child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    rep.elapsed_s = time.monotonic() - start
    rep.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if store:
        shutil.rmtree(store, ignore_errors=True)
    if child.returncode != 0:
        killed = child.returncode == -9 and rep.elapsed_s >= budget
        rep.error = (f"killed after the {budget:.0f} s repetition budget"
                     if killed else f"child exited with {child.returncode}")
        return rep
    try:
        rep.doc = json.loads(out)
    except ValueError as e:
        rep.error = f"unreadable child output: {e}"
        return rep
    if rep.doc["failed"] or rep.doc["violations"]:
        rep.error = "; ".join(rep.doc["violations"][:3]) or "failed jobs"
    return rep


class Gate:
    """The correctness gate of one workload's repetitions: every one must
    pass and simulate exactly what the first one (or the pin) simulated."""

    def __init__(self, workload, seed, smoke, pinned):
        self.reference = None
        self.reference_from = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        if pinned and not smoke and pinned["seed"] == seed:
            self.reference = pinned["workloads"].get(workload)
            self.reference_from = "benchmark/pinned.json"

    def check(self, rep):
        """Counts `rep`; returns True when it passed."""
        self.attempted += rep.doc["attempted"] if rep.doc else 1
        if not rep.ok:
            self.failed += rep.doc["failed"] if rep.doc and rep.doc["failed"] else 1
            self.errors.append(f"{rep.workload} seed {rep.seed}: {rep.error}")
            return False
        sim = rep.doc["sim"]
        if self.reference is None:
            self.reference = sim
            self.reference_from = f"the first {rep.workload} repetition"
        elif sim != self.reference:
            self.failed += rep.doc["attempted"]
            what = "traced repetition" if rep.traced else "repetition"
            self.errors.append(
                f"{rep.workload} {what} seed {rep.seed}: simulated outcome "
                f"differs from {self.reference_from}")
            return False
        return True


# -------------------------------------------------------------- metrics ----

def quartiles(values):
    """First and third quartile."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """The highest of p99/p90 with at least ten samples beyond it, else p50."""
    values = sorted(values)
    n = len(values)
    if n < 2:
        return 50, values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            return pct, cuts[pct - 1]
    return 50, statistics.median(values)


def ratio(a, b):
    return a / b if b else 0.0


def fastest_batch_s(reps):
    """The batch's wall time with each instance at its fastest repetition.
    Host interference only ever adds time, and on a shared host it comes in
    bursts shorter than a repetition: the per-instance minimum keeps a burst
    from costing more than the instance it hit."""
    per_instance = zip(*(r.doc["instance_wall_ns"] for r in reps))
    return sum(min(ns) for ns in per_instance) / 1e9


def end_to_end(reps):
    """The end_to_end metrics over passing untraced repetitions, and each
    metric's per-repetition values (for quartiles)."""
    wall = fastest_batch_s(reps)
    values = {
        "wall_s": [r.wall_s for r in reps],
        "jobs_per_s": [r.doc["attempted"] / r.wall_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
        "heap_allocs": [float(r.doc["heap_allocs"]) for r in reps],
    }
    point = {name: statistics.median(v) for name, v in values.items()}
    point["wall_s"] = wall
    point["jobs_per_s"] = reps[0].doc["attempted"] / wall
    return point, values


def per_layer(traced, untraced, serial):
    """The per_layer metrics, read from the fastest traced repetition.
    `untraced` are the same run's untraced repetitions; `serial` the
    one-lane repetitions of the same instances when this workload runs on
    several lanes (churn-par)."""
    best = min(traced, key=lambda r: r.wall_s)
    doc = best.doc
    t = doc["trace"]
    run_ms = t["run_ns"] / 1e6
    untraced_wall = fastest_batch_s(untraced)
    allocs = statistics.median(r.doc["heap_allocs"] for r in untraced)
    rounds = sum(s["rounds"] for s in doc["sim"])
    m = {"trace.wall_ms": run_ms,
         "trace.overhead_ratio": ratio(fastest_batch_s(traced), untraced_wall),
         "mem.allocs_per_round": ratio(allocs, rounds)}
    if best.workload == "sweep":
        jobs_ms = [ns / 1e6 for ns in t["job_ns"]]
        pct, job_tail = tail(jobs_ms)
        busy_ms = sum(jobs_ms)
        m.update({
            "campaign.jobs": float(len(jobs_ms)),
            "campaign.job_ms_p50": statistics.median(jobs_ms),
            "campaign.job_ms_tail": job_tail,
            "campaign.job_tail_pct": float(pct),
            "campaign.lane_utilization": ratio(busy_ms, doc["lanes"] * run_ms),
            "threads.speedup": ratio(busy_ms, run_ms),
        })
        return m
    e = doc["engine"]
    # The outside spans partition the traced wall time (tracing.h).
    spans = {
        ("adversary.self_ms", "adversary.self_share"):
            t["adversary_ns"] - t["probe_ns"],
        ("probe.ms", "probe.share"): t["probe_ns"],
        ("engine.pre_step_ms", "engine.pre_step_share"): t["pre_step_ns"],
        ("plan.miss_ms", "plan.miss_share"): t["miss_ns"],
        ("step.ms", "step.share"): t["step_ns"],
        ("engine.post_step_ms", "engine.post_step_share"):
            t["post_step_ns"] + t["lead_in_ns"],
    }
    for (ms_name, share_name), ns in spans.items():
        m[ms_name] = ns / 1e6
        m[share_name] = ratio(ns, t["run_ns"])
    round_ms = [ns / 1e6 for ns in t["round_ns"]]
    pct, round_tail = tail(round_ms)
    phases = {p: e[f"phase_{p}_ns"] / 1e6
              for p in ("graph_build", "broadcast", "plan", "compute", "move")}
    copied, rebuilt = e["packets_copied"], e["packets_rebuilt"]
    sc_reused, sc_rebuilt = t["sc_components_reused"], t["sc_components_rebuilt"]
    m.update({
        "adversary.calls": float(t["rounds"] - t["reused_rounds"]),
        "adversary.reuse_ratio": ratio(t["reused_rounds"], t["rounds"]),
        "probe.calls": float(t["probe_calls"]),
        "probe.us_per_call": ratio(t["probe_ns"] / 1e3, t["probe_calls"]),
        "plan.misses": float(t["misses"]),
        "plan.ms_per_miss": ratio(t["miss_ns"] / 1e6, t["misses"]),
        "plan.cache_hit_ratio": ratio(t["plan_hits"],
                                      t["plan_hits"] + t["plan_misses"]),
        "plan.sc_exact_hits": float(t["sc_exact_hits"]),
        "plan.sc_delta_rounds": float(t["sc_delta_rounds"]),
        "plan.sc_full_builds": float(t["sc_full_builds"]),
        "plan.sc_component_reuse_ratio": ratio(sc_reused, sc_reused + sc_rebuilt),
        "step.ns_per_step": ratio(t["step_ns"], t["steps"] - t["misses"]),
        "round.count": float(t["rounds"]),
        "round.ms_p50": statistics.median(round_ms),
        "round.ms_tail": round_tail,
        "round.tail_pct": float(pct),
        "broadcast.delta_rounds": float(e["broadcast_deltas"]),
        "broadcast.reused_rounds": float(e["broadcasts_reused"]),
        "broadcast.copy_ratio": ratio(copied, copied + rebuilt),
        # 1 on one lane by definition; 0 when the one-lane batch was not run.
        "threads.speedup": (ratio(fastest_batch_s(serial), untraced_wall)
                            if serial else float(doc["lanes"] == 1)),
        "trace.span_sum_ratio": ratio(sum(spans.values()), t["run_ns"]),
    })
    for p, ms in phases.items():
        m[f"engine.phase_{p}_ms"] = ms
    m["engine.phase_sum_ratio"] = ratio(sum(phases.values()), run_ms)
    return m


def with_units(values, declared, fill=None):
    """The declared metrics of `values`, each with its unit. A per-layer
    metric of a layer the workload does not run (campaign metrics on engine
    workloads, engine metrics on `sweep`) reads `fill`."""
    out = {}
    for metric in declared:
        v = values.get(metric["name"], fill)
        if v is None:
            raise BenchError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": v, "unit": metric["unit"]}
    return out


# ----------------------------------------------------------- single run ----

def single_run(args, spec, pinned):
    """One measured run of one workload for --seconds seconds."""
    build()
    lanes = default_lanes()
    gate = Gate(args.workload, args.seed, False, pinned)
    start = time.monotonic()
    deadline = start + args.seconds
    untraced, traced, serial = [], [], []

    def one(workload, trace, sink):
        budget = min(REP_BUDGET_S, RUN_LIMIT_S - (time.monotonic() - start))
        rep = run_rep(workload, args.seed, lanes, False, trace, budget)
        if gate.check(rep):
            sink.append(rep)

    rounds, last = 0, 0.0
    while rounds < MIN_REPS or time.monotonic() + last <= deadline:
        if RUN_LIMIT_S - (time.monotonic() - start) <= 2 * last + 1.0:
            break
        t0 = time.monotonic()
        one(args.workload, False, untraced)
        if args.trace:
            one(args.workload, True, traced)
            if args.workload == "churn-par":
                # The same instances on one lane: the speedup's numerator,
                # and the lane-count determinism check (same gate).
                one("churn", False, serial)
        last = time.monotonic() - t0
        rounds += 1
        if gate.failed:
            break
    log(f"{args.workload}: {rounds} round(s) of repetitions in "
        f"{time.monotonic() - start:.1f} s; untraced walls "
        + " ".join(f"{r.wall_s:.4f}" for r in untraced))
    for e in gate.errors:
        log(f"FAIL {e}")
    correct = gate.failed == 0 and bool(untraced) and (
        bool(traced) or not args.trace)
    metrics = {}
    if correct:
        if args.trace:
            metrics = with_units(per_layer(traced, untraced, serial),
                                 spec["per_layer"], fill=0.0)
        else:
            metrics = with_units(end_to_end(untraced)[0], spec["end_to_end"])
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


# ------------------------------------------------------------ full mode ----

def git_state():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def spread(s):
    """Interquartile range of the repetitions over their median."""
    mid = statistics.median(s["values"])
    return (s["q3"] - s["q1"]) / mid if mid else 0.0


def verdict(metric, old, new):
    """better / within bound / worse / unresolved, from BENCHMARK.json's
    bound and each side's spread over its repetitions. `better` needs the
    new repetition to win nine in ten of the index-paired repetitions and
    the improvement to exceed the old spread."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (new["value"] - old["value"]) / old["value"]
    noise = max(spread(old), spread(new))
    all_better = all(sign * (n - o) < 0 for n in new["values"]
                     for o in old["values"])
    if noise > bound and not all_better:
        return "unresolved", worse_by, noise
    pairs = list(zip(old["values"], new["values"]))
    wins = sum(sign * (n - o) < 0 for o, n in pairs)
    if worse_by < 0 and -worse_by > spread(old) and wins >= 0.9 * len(pairs):
        return "better", worse_by, noise
    if worse_by <= bound:
        return "within bound", worse_by, noise
    return "worse", worse_by, noise


def compare(spec, old, new):
    """Prints one verdict per (workload, end-to-end metric); returns the
    number of "worse"."""
    verdicts = []
    print(f"{'workload':<10} {'metric':<12} {'old value [q1, q3]':>34} "
          f"{'new value [q1, q3]':>34} {'change':>8} {'spread':>7}  verdict")
    for workload, res in new["workloads"].items():
        if not old["workloads"].get(workload, {}).get("end_to_end"):
            print(f"{workload:<10} (no end-to-end metrics in the old result)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            o = old["workloads"][workload]["end_to_end"][name]
            n = res["end_to_end"][name]
            v, change, noise = verdict(metric, o, n)
            verdicts.append(v)
            fmt = "{:.6g} [{:.6g}, {:.6g}]"
            print(f"{workload:<10} {name:<12} "
                  f"{fmt.format(o['value'], o['q1'], o['q3']):>34} "
                  f"{fmt.format(n['value'], n['q1'], n['q3']):>34} "
                  f"{change:>+8.1%} {noise:>7.1%}  {v}")
    counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    print("verdicts: " + ", ".join(f"{v} {c}" for v, c in counts.items()))
    return verdicts.count("worse")


def print_workload(name, res):
    print(f"\n== {name}: {res['attempted']} simulated, {res['failed']} failed")
    for metric, s in res["end_to_end"].items():
        print(f"  {metric:<32} {s['value']:>14.6g} {s['unit']:<7} "
              f"[repetitions q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
              f"n={len(s['values'])}]")
    for metric, s in res["per_layer"].items():
        print(f"  {metric:<32} {s['value']:>14.6g} {s['unit']}")


def check_declared(spec, result, measured):
    """--smoke: every declared metric is reported, numeric and in its unit,
    and every per-layer metric the traced runs measure is declared."""
    declared = {m["name"] for m in spec["per_layer"]}
    problems = [f"per_layer {name} is measured but not in BENCHMARK.json"
                for name in sorted(measured - declared)]
    if len(result["workloads"]) == len(WORKLOADS):
        problems += [f"per_layer {name} is measured by no workload"
                     for name in sorted(declared - measured)]
    for workload, res in result["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                got = res[section].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {section} {metric['name']} "
                                    f"missing or not in {metric['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{workload}: {metric['name']} = "
                                    f"{got['value']!r}")
    return problems


def full_run(args, spec, pinned):
    build()
    info = build_info()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        if w not in WORKLOADS:
            raise BenchError(f"unknown workload {w!r}; known: {WORKLOADS}")
    cores = nproc()
    lanes = args.lanes or default_lanes()
    if lanes > cores:
        log(f"WARNING: {lanes} lanes on {cores} cores: the multi-lane "
            "workloads are oversubscribed")
    reps = 1 if args.smoke else args.reps
    traced_reps = 1 if args.smoke else 2
    sha, dirty = git_state()
    meta = {
        "nproc": cores, "lanes": lanes, "lanes_exceed_nproc": lanes > cores,
        "cpu": cpu_model(), "compiler": info["compiler"],
        "build_type": info["build_type"], "asserts": info["asserts"],
        "git_sha": sha, "git_dirty": dirty, "seed": args.seed, "reps": reps,
        "traced_reps": traced_reps, "smoke": args.smoke,
        "python": platform.python_version(),
    }
    gates = {w: Gate(w, args.seed, args.smoke, pinned) for w in workloads}
    untraced = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    start = time.monotonic()
    # Repetitions interleave across workloads: host noise comes in bursts,
    # and a burst then slows one repetition of several workloads instead of
    # every repetition of one.
    for sink, count, trace in ((untraced, reps, False),
                               (traced, traced_reps, True)):
        for i in range(count):
            for w in workloads:
                rep = run_rep(w, args.seed, lanes, args.smoke, trace)
                log(f"{'traced' if trace else 'untraced'} rep {i + 1}/{count} "
                    f"{w}: " + (f"{rep.wall_s:.3f} s" if rep.ok else rep.error))
                if gates[w].check(rep):
                    sink[w].append(rep)
    if untraced.get("churn") and untraced.get("churn-par"):
        # The same instances on one lane and on several: one outcome.
        if untraced["churn"][0].doc["sim"] != untraced["churn-par"][0].doc["sim"]:
            gates["churn-par"].failed += 1
            gates["churn-par"].errors.append(
                "churn-par: simulated outcome differs from churn's")

    result = {"schema": 1, "meta": meta, "workloads": {}}
    measured = set()
    for w in workloads:
        g = gates[w]
        res = {"attempted": g.attempted, "failed": g.failed,
               "errors": g.errors, "end_to_end": {}, "per_layer": {}}
        if untraced[w]:
            point, values = end_to_end(untraced[w])
            for metric in spec["end_to_end"]:
                v = values[metric["name"]]
                q1, q3 = quartiles(v)
                res["end_to_end"][metric["name"]] = {
                    "unit": metric["unit"], "value": point[metric["name"]],
                    "q1": q1, "q3": q3, "values": v}
        if traced[w] and untraced[w]:
            serial = untraced.get("churn", []) if w == "churn-par" else []
            layer = per_layer(traced[w], untraced[w], serial)
            measured.update(layer)
            res["per_layer"] = with_units(layer, spec["per_layer"], fill=0.0)
        result["workloads"][w] = res
    meta["total_s"] = time.monotonic() - start

    failed = 0
    for w, res in result["workloads"].items():
        print_workload(w, res)
        for e in res["errors"]:
            print(f"  FAIL {e}")
        failed += res["failed"] + (not res["end_to_end"]) + (not res["per_layer"])
    print(f"\nhost: {cores} cores ({meta['cpu']}), lanes {lanes}, "
          f"{meta['compiler']} {meta['build_type']}, asserts "
          f"{'on' if meta['asserts'] else 'off'}; git {sha}"
          f"{' (dirty)' if dirty else ''}; {meta['total_s']:.0f} s of "
          "repetitions")

    out = args.out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {out}")

    status = 0
    if failed:
        print(f"FAIL: {failed} failed simulations or missing metrics")
        status = 1
    if args.smoke:
        problems = check_declared(spec, result, measured)
        for p in problems:
            print(f"FAIL {p}")
        status = status or (1 if problems else 0)
        if not problems:
            print("smoke: every BENCHMARK.json metric reported in its unit")
    if args.pin and not status and not args.smoke:
        pins = {"seed": args.seed,
                "workloads": {w: untraced[w][0].doc["sim"] for w in workloads}}
        with open(PINNED_PATH, "w") as f:
            json.dump(pins, f, indent=1)
            f.write("\n")
        print(f"pinned seed {args.seed} outcomes to {PINNED_PATH}")
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)
        print(f"\ncompare against {args.compare}:")
        if compare(spec, old, result):
            status = status or 1
    return status


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="single run: the one workload to run")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="single run: how long it measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="single run: 1 reports the per_layer metrics")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--lanes", type=int, help="lanes of the multi-lane "
                   "workloads (default min(4, nproc / 2))")
    p.add_argument("--out", help="result file (default benchmark/out/result.json)")
    p.add_argument("--compare", help="an earlier result file to diff against")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one repetition, check the metric names")
    p.add_argument("--pin", action="store_true",
                   help="write this run's outcomes to benchmark/pinned.json")
    args = p.parse_args(argv)
    if args.seed < 0 or args.reps < 1 or (args.lanes is not None and args.lanes < 1):
        p.error("--seed must be >= 0, --reps and --lanes >= 1")
    try:
        spec = load_spec()
        pinned = None
        if os.path.exists(PINNED_PATH):
            with open(PINNED_PATH) as f:
                pinned = json.load(f)
        if args.workload is not None:
            if args.workload not in WORKLOADS:
                p.error(f"unknown workload {args.workload!r}")
            return single_run(args, spec, pinned)
        return full_run(args, spec, pinned)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
