#!/usr/bin/env python3
"""Benchmark entry point: build the program, run one workload, check it,
print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds perfbench/ (which
compiles src/) into $CARGO_TARGET_DIR, default .bench_build, runs the
cqperf workload program, checks every operation's output and prints, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 the per-layer ones, writes the Chrome trace
and a per-layer self-time table under <build>/trace/. The lines before
the result carry provenance and the per-layer table.

    python3 perfbench/run.py --capture-goldens

re-simulates every (network, config, minibatch size) of both sim
workloads and rewrites perfbench/goldens.json.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("sim_seq", "sim_cnn", "train_hqt", "train_fp32")
SIM_WORKLOADS = ("sim_seq", "sim_cnn")
# Held-out accuracy every training episode must reach, far above the 25%
# of chance. Its 200 steps reach 95-100% on most seeds, but Adam at this
# learning rate dips on some (84% at step 200 on one of 40 seed/policy
# pairs tried, 98.8% fifty steps later).
ACCURACY_FLOOR_PCT = 70.0
# Simulated statistics checked against goldens.json. Counters must match
# exactly; energy is a floating-point sum, so a change that only
# reorders its additions may move the last bits.
GOLDEN_EXACT = ("ticks", "reads", "writes", "activates", "row_hits",
                "refreshes", "pe_macs")
GOLDEN_REL = {"energy_pj": 1e-9}
UNITS = ("dma_load", "dma_store", "pe", "sfu", "ndp")
PHASES = ("fw", "ng", "wg", "wu", "stat", "quant")
# cqperf time allowed beyond twice the requested run length: the last
# operation, which may start just before the deadline, the set-up samples
# left for the end and, on traced runs, the traced repetitions (a sim
# item's second simulation and DRAM replay, a training run's three
# episodes).
CQPERF_SLACK_S = 120
CAPTURE_TIMEOUT_S = 900


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# ------------------------------------------------------------- build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "arch",
                                       "accelerator.h")):
        fail("no program sources under src/; run from a source checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "cqperf")


def provenance(seed):
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    # A checkout without git still identifies its sources by content.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    return {"seed": seed, "nproc": os.cpu_count(), "build_type": build_type,
            "cxx_flags": flags, "compiler": version, "commit": commit,
            "source_sha256": digest.hexdigest()}


def run_cqperf(exe, args, timeout):
    # The program reads these; a stray value in the caller's
    # environment must not change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CQ_")}
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE, env=env,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("cqperf exceeded %d s" % timeout)
    if r.returncode != 0:
        fail("cqperf exited with %d" % r.returncode)
    return [json.loads(line) for line in r.stdout.splitlines() if line]


# ------------------------------------------------------------ stats

def percentile(xs, q):
    """Linear-interpolated percentile (q in [0, 100]) of a nonempty list."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def item_key(rec):
    return "%s|%s|%d" % (rec["net"], rec["config"], rec["batch"])


def by_item(sims):
    items = {}
    for r in sims:
        items.setdefault(item_key(r), []).append(r)
    return items


def item_medians(sims, field):
    return {k: statistics.median(r[field] for r in rs)
            for k, rs in by_item(sims).items()}


# ----------------------------------------------------------- checks

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("perfbench: FAILED " + what)


def check_sim(checks, sims, replays, goldens):
    for r in sims:
        gold = goldens.get(item_key(r))
        ok = gold is not None
        if ok:
            ok = all(r[f] == gold[f] for f in GOLDEN_EXACT) and all(
                abs(r[f] - gold[f]) <= tol * abs(gold[f])
                for f, tol in GOLDEN_REL.items())
        checks.check(ok, "simulation %s differs from goldens.json"
                     % item_key(r))
    first = {}
    for r in sims:
        first.setdefault((r["net"], r["config"]), r)
    for rp in replays:
        s = first[(rp["net"], rp["config"])]
        checks.check(rp["bursts"] == s["reads"] + s["writes"] and
                     rp["bus_bytes"] == s["bus_bytes"],
                     "DRAM replay of %s|%s moved %d bursts / %d B, the "
                     "simulation %d / %d" % (
                         rp["net"], rp["config"], rp["bursts"],
                         rp["bus_bytes"], s["reads"] + s["writes"],
                         s["bus_bytes"]))


def check_train(checks, trains):
    """Every episode trains the same seed, so its losses and accuracy
    must equal the first episode's bit for bit, at any pool width."""
    accuracies = []
    first = trains[0]["loss"]
    for r in trains:
        for i, loss in enumerate(r["loss"]):
            checks.check(loss is not None and
                         (i >= len(first) or loss == first[i]),
                         "training step %d loss %s at pool width %d (first "
                         "episode %s)" % (i, loss, r["pool_width"],
                                          first[i] if i < len(first)
                                          else "-"))
        if "accuracy_pct" in r:
            acc = r["accuracy_pct"]
            accuracies.append(acc)
            checks.check(acc is not None and acc >= ACCURACY_FLOOR_PCT and
                         acc == accuracies[0],
                         "held-out accuracy %s%% at pool width %d (floor "
                         "%.0f%%, first episode %s%%)" % (
                             acc, r["pool_width"], ACCURACY_FLOOR_PCT,
                             accuracies[0]))


# ------------------------------------------------- end-to-end metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, recs):
    """The gated metrics, and the ungated figures printed beside them.

    On a host whose cores other tenants share, their load slows every
    host timing by up to 1.9x, for seconds to many minutes at a time,
    and it only ever adds time. A median or a high percentile follows
    the share of the run they load: a 90th-percentile training rate read
    1.8x apart between a loaded and an idle stretch of the same hour. So each gated time is taken at
    its fast floor, the program's own cost: the 5th-percentile training
    step, each simulated item at its fastest repetition, and the median
    of the fastest quarter of the set-up samples.
    """
    setup = next(r for r in recs if r["kind"] == "setup")["setup_s"]
    loop = next(r for r in recs if r["kind"] == "loop")
    fastest_setups = sorted(setup)[:max(1, len(setup) // 4)]
    # Memory over the first pass (every item, or one training episode):
    # the heap keeps growing with repeated passes, and how many fit in a
    # run depends on host speed.
    m = {"setup_s": metric(statistics.median(fastest_setups), "s"),
         "peak_rss_mb": metric(loop["first_pass_peak_rss_mb"], "MB")}
    info = {"setup_s_median": statistics.median(setup)}
    if workload in SIM_WORKLOADS:
        sims = [r for r in recs if r["kind"] == "sim"]
        items = by_item(sims)
        samples = sum(rs[0]["batch"] for rs in items.values())
        # One pass over the (network, config) set.
        best = sum(min(r["total_s"] for r in rs) for rs in items.values())
        m["samples_per_s"] = metric(samples / best, "1/s")
        info["median_samples_per_s"] = samples / sum(
            item_medians(sims, "total_s").values())
        info["simulations"] = len(sims)
    else:
        trains = [r for r in recs if r["kind"] == "train"]
        steps_ms = [1e3 * t for r in trains for t in r["step_s"]]
        m["samples_per_s"] = metric(
            loop["batch"] / (1e-3 * percentile(steps_ms, 5)), "1/s")
        info["mean_samples_per_s"] = loop["batch"] * len(steps_ms) / \
            loop["loop_s"]
        info["step_ms_p50"] = percentile(steps_ms, 50)
        # The highest percentile with ten steps beyond it.
        tail = 100.0 * (1.0 - 10.0 / len(steps_ms))
        info["step_ms_tail"] = {"pct": tail,
                                "ms": percentile(steps_ms, tail)}
        info["steps"] = len(steps_ms)
    return m, info


# --------------------------------------------------- per-layer metrics

def load_spans(trace_path):
    """Host spans of the Chrome trace, split into those of the
    full-width pool episode (inside bench.loop.pool, every thread) and
    the rest."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X" and e.get("pid") == 1]
    pools = [(e["ts"], e["ts"] + e["dur"]) for e in events
             if e["name"] == "bench.loop.pool"]

    def in_pool(e):
        return any(lo <= e["ts"] <= hi for lo, hi in pools)

    return ([e for e in events if not in_pool(e)],
            [e for e in events if in_pool(e)])


def self_times(events):
    """Per-span-name totals of the traced stretches.

    Returns (main, loop_us). `main` maps (root, name) to
    [count, inclusive_us, self_us] over the main thread, where `root` is
    the bench.* span directly under bench.loop that the span ran in;
    `loop_us` is the traced wall time, the summed bench.loop spans. A
    pool.chunk on the main thread is the caller's share of a parallelFor
    and counts to its parent.
    """
    loops = [e for e in events if e["name"] == "bench.loop"]
    spans = sorted((e for e in events if e["tid"] == loops[0]["tid"] and
                    e["name"] != "pool.chunk"),
                   key=lambda e: (e["ts"], -e["dur"]))
    eps = 0.002  # timestamps are rounded to the nanosecond
    main = {}
    stack = []  # [event, child_us, root]

    def close(entry):
        ev, child, root = entry
        acc = main.setdefault((root, ev["name"]), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += ev["dur"]
        acc[2] += max(ev["dur"] - child, 0.0)
        if stack:
            stack[-1][1] += ev["dur"]

    for ev in spans:
        while stack and ev["ts"] >= stack[-1][0]["ts"] + \
                stack[-1][0]["dur"] - eps:
            close(stack.pop())
        root = ev["name"] if len(stack) <= 1 else stack[-1][2]
        stack.append([ev, 0.0, root])
    while stack:
        close(stack.pop())
    return main, sum(e["dur"] for e in loops)


def layer_table(main, loop_us):
    rows = {}
    for (root, name), (count, incl, self_us) in main.items():
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += count
        row[1] += incl
        row[2] += self_us
    lines = ["%-34s %8s %12s %12s %7s" % ("span", "count", "incl_ms",
                                          "self_ms", "self%")]
    for name, (count, incl, self_us) in sorted(
            rows.items(), key=lambda kv: -kv[1][2]):
        lines.append("%-34s %8d %12.3f %12.3f %6.2f%%" % (
            name, count, incl / 1e3, self_us / 1e3,
            100.0 * self_us / loop_us))
    total = sum(r[2] for r in rows.values())
    lines.append("self times sum to %.3f ms of the %.3f ms traced; "
                 "bench.loop self (unattributed) %.3f ms" % (
                     total / 1e3, loop_us / 1e3,
                     rows["bench.loop"][2] / 1e3))
    return "\n".join(lines)


def pool_layers(v, wide, width):
    """common.*: the pool's chunks per step and busy share over the
    steps of the full-width episode, worker threads included."""
    steps = sorted((e for e in wide
                    if e["name"] == "bench.nn.stepClassification"),
                   key=lambda e: e["ts"])
    starts = [e["ts"] for e in steps]

    def in_step(e):
        i = bisect.bisect_right(starts, e["ts"]) - 1
        return i >= 0 and e["ts"] <= steps[i]["ts"] + steps[i]["dur"]

    chunks = [e for e in wide if e["name"] == "pool.chunk" and in_step(e)]
    v["common.pool_chunks"] = len(chunks) / len(steps)
    v["common.pool_util"] = sum(e["dur"] for e in chunks) / (
        width * sum(e["dur"] for e in steps))
    return ("pool at width %d: %d steps, %.1f chunks per step, chunk "
            "busy time %.1f%% of width x step time" % (
                width, len(steps), v["common.pool_chunks"],
                100.0 * v["common.pool_util"]))


def sim_layers(v, recs):
    sims = [r for r in recs if r["kind"] == "sim"]
    traced = [r for r in sims if r["phase"] == "traced"]
    untraced = [r for r in sims if r["phase"] == "untraced"]
    once = [rs[0] for rs in by_item(traced).values()]
    cq = [r for r in once if r["config"] != "tpu"]
    tpu = [r for r in once if r["config"] == "tpu"]
    replays = [r for r in recs if r["kind"] == "replay"]
    med_codegen = item_medians(traced, "codegen_s")
    med_run = item_medians(traced, "run_s")
    run_cq = sum(med_run[item_key(r)] for r in cq)

    v["dram.replay_s"] = sum(r["replay_s"] for r in replays)
    v["dram.host_ns_per_burst"] = 1e9 * v["dram.replay_s"] / sum(
        r["bursts"] for r in replays)
    v["dram.arch_run_share"] = v["dram.replay_s"] / run_cq
    v["dram.bursts"] = sum(r["reads"] + r["writes"] for r in once)
    v["dram.row_hit_frac"] = sum(r["row_hits"] for r in once) / sum(
        r["row_hits"] + r["row_misses"] for r in once)
    for f in ("activates", "refreshes", "ndp_row_groups"):
        v["dram." + f] = sum(r[f] for r in once)
    v["dram.dynamic_mj"] = 1e-9 * sum(r["dram_dynamic_pj"] for r in once)
    v["dram.standby_mj"] = 1e-9 * sum(r["dram_standby_pj"] for r in once)
    v["arch.run_s"] = run_cq
    v["arch.host_ns_per_instr"] = 1e9 * run_cq / sum(r["instrs"] for r in cq)
    ticks = sum(r["ticks"] for r in once)
    for i, u in enumerate(UNITS):
        v["arch.busy_frac." + u] = sum(r["unit_busy"][i]
                                       for r in once) / ticks
    busy = sum(sum(r["phase_busy"]) for r in once)
    for i, p in enumerate(PHASES):
        v["arch.phase_frac." + p] = sum(r["phase_busy"][i]
                                        for r in once) / busy
    v["arch.pe_macs"] = sum(r["pe_macs"] for r in once)
    v["arch.squ_elements"] = sum(r["squ_elements"] for r in once)
    v["arch.qbc_requants"] = sum(r["qbc_requants"] for r in once)
    v["compiler.codegen_s"] = sum(med_codegen[item_key(r)] for r in cq)
    v["compiler.instrs"] = sum(r["instrs"] for r in cq)
    v["compiler.dram_traffic_mb"] = 1e-6 * sum(r["traffic_bytes"]
                                               for r in cq)
    if tpu:
        v["baseline.tpu_s"] = sum(med_run[item_key(r)] for r in tpu)
        v["baseline.tpu_makespan_cycles"] = sum(r["ticks"] for r in tpu)
        edge = {r["net"]: r["ticks"] for r in once if r["config"] == "edge"}
        v["sim.speedup_vs_tpu"] = math.exp(statistics.mean(
            math.log(r["ticks"] / edge[r["net"]]) for r in tpu))
    # Fig. 12(d): the energy split of Cambricon-Q (edge) itself.
    edge_runs = [r for r in once if r["config"] == "edge"]
    energy = sum(r["energy_pj"] for r in edge_runs)
    for part in ("acc", "buf", "ddr"):
        v["energy.%s_frac" % part] = sum(r[part + "_pj"]
                                         for r in edge_runs) / energy
    v["sim.makespan_cycles"] = ticks
    v["sim.energy_mj"] = 1e-9 * sum(r["energy_pj"] for r in once)
    med_untraced = item_medians(untraced, "total_s")
    v["sim.mcycles_per_s"] = 1e-6 * ticks / sum(med_untraced.values())
    v["trace.overhead_frac"] = sum(
        item_medians(traced, "total_s").values()) / sum(
        med_untraced.values()) - 1.0


def train_layers(v, recs, main):
    trains = [r for r in recs if r["kind"] == "train"]
    steps_traced = [t for r in trains if r["phase"] == "traced"
                    for t in r["step_s"]]
    steps_untraced = [t for r in trains if r["phase"] == "untraced"
                      for t in r["step_s"]]
    step_root = "bench.nn.stepClassification"
    nsteps = main[(step_root, step_root)][0]

    def per_step(*names, field=2):
        total = sum(acc[field] for (root, name), acc in main.items()
                    if root == step_root and name in names)
        return total / nsteps

    v["nn.step_s"] = 1e-6 * per_step(step_root, field=1)
    evals = main[("bench.nn.evalAccuracy", "bench.nn.evalAccuracy")]
    v["nn.eval_s"] = 1e-6 * evals[1] / evals[0]
    for phase in ("fwd", "bwd", "quant", "optim"):
        v["nn.%s_s" % phase] = 1e-6 * per_step("trainer." + phase)
    gemms = ("gemm.matmul", "gemm.matmulTransA", "gemm.matmulTransB")
    v["tensor.gemm_s"] = 1e-6 * per_step(*gemms)
    v["tensor.gemm_calls"] = per_step(*gemms, field=0)
    v["tensor.im2col_s"] = 1e-6 * per_step("tensor.im2col", "tensor.col2im")
    v["quant.e2bqm_s"] = 1e-6 * per_step("quant.e2bqm_sweep")
    v["quant.e2bqm_calls"] = per_step("quant.e2bqm_sweep", field=0)
    v["nn.accuracy_pct"] = next(r["accuracy_pct"] for r in trains
                                if "accuracy_pct" in r)
    v["trace.overhead_frac"] = statistics.median(steps_traced) / \
        statistics.median(steps_untraced) - 1.0


def per_layer(workload, recs, trace_path, spec):
    v = {}
    events, wide = load_spans(trace_path)
    main, loop_us = self_times(events)
    table = layer_table(main, loop_us)
    if workload in SIM_WORKLOADS:
        sim_layers(v, recs)
    else:
        train_layers(v, recs, main)
        width = max(r["pool_width"] for r in recs if r["kind"] == "train")
        table += "\n" + pool_layers(v, wide, width)
    v["trace.unattributed_frac"] = \
        main[("bench.loop", "bench.loop")][2] / loop_us
    unknown = set(v) - set(m["name"] for m in spec)
    if unknown:
        fail("per-layer metrics missing from BENCHMARK.json: %s"
             % sorted(unknown))
    # A layer the workload does not run reports 0.
    metrics = {m["name"]: metric(v.get(m["name"], 0.0), m["unit"])
               for m in spec}
    return metrics, table


# ------------------------------------------------------------- main

def capture_goldens(exe):
    goldens = {}
    for workload in SIM_WORKLOADS:
        for r in run_cqperf(exe, ["--workload", workload, "--all-sizes"],
                            CAPTURE_TIMEOUT_S):
            if r["kind"] == "sim":
                goldens[item_key(r)] = {f: r[f] for f in
                                        GOLDEN_EXACT + tuple(GOLDEN_REL)}
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: wrote %d goldens to %s" % (len(goldens), GOLDENS))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--capture-goldens", action="store_true")
    a = ap.parse_args()
    if not a.capture_goldens and (a.workload is None or a.seed is None or
                                  a.seconds is None or a.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.capture_goldens and (a.seed < 0 or a.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    if a.capture_goldens:
        capture_goldens(exe)
        return

    prov = provenance(a.seed)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    trace_path = None
    if a.trace:
        trace_dir = os.path.join(build_dir(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (
            a.workload, a.seed))
        args += ["--trace-file", trace_path]
    recs = run_cqperf(exe, args, 2 * a.seconds + CQPERF_SLACK_S)
    prov["pool_width"] = next(r for r in recs
                              if r["kind"] == "setup")["pool_width"]
    if a.trace and a.workload not in SIM_WORKLOADS:
        prov["traced_pool_width"] = max(r["pool_width"] for r in recs
                                        if r["kind"] == "train")
    print(json.dumps({"provenance": prov}), flush=True)

    checks = Checks()
    if a.workload in SIM_WORKLOADS:
        with open(GOLDENS) as f:
            goldens = json.load(f)
        check_sim(checks, [r for r in recs if r["kind"] == "sim"],
                  [r for r in recs if r["kind"] == "replay"], goldens)
    else:
        check_train(checks, [r for r in recs if r["kind"] == "train"])

    with open(BENCHMARK) as f:
        spec = json.load(f)
    if a.trace:
        metrics, table = per_layer(a.workload, recs, trace_path,
                                   spec["per_layer"])
        table_path = trace_path[:-len(".json")] + "-layers.txt"
        with open(table_path, "w") as f:
            f.write(table + "\n")
        print(table, flush=True)
        log("perfbench: trace %s, per-layer table %s" % (trace_path,
                                                         table_path))
    else:
        metrics, info = end_to_end(a.workload, recs)
        missing = set(m["name"] for m in spec["end_to_end"]) - set(metrics)
        if missing:
            fail("end-to-end metrics not measured: %s" % sorted(missing))
        print(json.dumps(info), flush=True)
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
