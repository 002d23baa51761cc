#!/usr/bin/env python3
"""Fixed-work benchmark of the AutoCkt reproduction (see perfbench/README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload tia_train --seed 3 --seconds 20 --trace 0
  python3 perfbench/run.py --workload ngm_pex_deploy --seed 3 --seconds 20 --trace 1
  python3 perfbench/run.py --selftest --workload tia_train
  python3 perfbench/run.py --write-reference --workload tia_train

Builds perfbench/ (and the library it links) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload's fixed list of cases in an order drawn from --seed, checks every
case's outputs against perfbench/reference.json, and prints the metrics.
The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170

# Fixed work per workload. Each case is a seed for one self-contained unit
# (a training run from scratch, or a set-up plus a sequence of design jobs)
# on a fresh problem; main.cpp's kWorkloads fixes the work of one case.
# --seconds picks how many cases run (seconds / case_s, at least 2, at most
# all of them); --seed only permutes their order, so every run of a workload
# does the same work and must give the same outputs.
WORKLOADS = {
    "tia_train": {"cases": [11, 12, 13, 14, 15, 16, 17, 18], "case_s": 3.0},
    "two_stage_train": {"cases": [21, 22, 23, 24, 25, 26, 27, 28], "case_s": 3.5},
    "ngm_pex_deploy": {"cases": [31, 32, 33, 34, 35, 36], "case_s": 10.0},
}

# The self-test's planted regression: the leaf made 1.5x slower, measured
# over this many runs per side.
SELFTEST_SLOWDOWN = 1.5
SELFTEST_RUNS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---- build and run -----------------------------------------------------------


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no autockt source tree (CMakeLists.txt, src/) around perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def case_list(workload, seconds, seed):
    spec = WORKLOADS[workload]
    count = int(round(seconds / spec["case_s"]))
    cases = spec["cases"][: max(2, min(len(spec["cases"]), count))]
    random.Random(seed).shuffle(cases)
    return cases


def run_binary(binary, workload, cases, trace, slowdown=1.0):
    cmd = [binary, "--workload", workload, "--cases", ",".join(map(str, cases)),
           "--trace", str(trace), "--slowdown", repr(slowdown)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload process printed nothing")
    return json.loads(lines[-1])


# ---- output checks -------------------------------------------------------------


def outputs(workload, p):
    """The checked outputs of one pass: (per-operation list, per-case dict)."""
    unique_sims = p["cache_entries"] * p["sims_per_point"]
    if workload == "ngm_pex_deploy":
        ops = [[r, s] for r, s in zip(p["reached"], p["steps"])]
        whole = {"jobs": len(ops), "env_steps": p["env_steps"], "unique_sims": unique_sims}
    else:
        ops = [[g, m] for g, m in zip(p["goal_rate"], p["mean_reward"])]
        whole = {"iterations": len(ops), "env_steps": p["env_steps"],
                 "final_holdout": p["final_holdout"], "unique_sims": unique_sims}
    return ops, whole


def same(a, b):
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check(workload, passes, reference):
    """Returns (attempted, failed, notes). An operation is a training
    iteration or a design job; a case-level mismatch fails all of its case's
    operations."""
    ref = reference.get(workload)
    notes = []
    if ref is None:
        notes.append("reference.json has no entry for this workload")
    attempted = failed = 0
    for p in passes:
        ops, whole = outputs(workload, p)
        attempted += len(ops)
        want = ref["cases"].get(str(p["case"])) if ref else None
        if want is None:
            failed += len(ops)
            continue
        bad_case = [k for k in whole if not same(whole[k], want["whole"][k])]
        if "probe" in p and p["probe"]["dup_sims"] != p["sims"] - whole["unique_sims"]:
            bad_case.append("probe dup_sims")
        if bad_case:
            notes.append(f"case {p['case']}: mismatch in {', '.join(bad_case)}")
            failed += len(ops)
            continue
        bad_ops = [i for i, (got, exp) in enumerate(zip(ops, want["ops"])) if not same(got, exp)]
        if bad_ops:
            notes.append(f"case {p['case']}: mismatch in operations {bad_ops}")
        failed += len(bad_ops)
    return attempted, failed, notes


# ---- metrics ---------------------------------------------------------------------


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, passes, run):
    setup = [s for p in passes for s in p["setup_s"]]
    key = "job_ms" if workload == "ngm_pex_deploy" else "iter_ms"
    jobs = [x for p in passes for x in p[key]]
    job_tail, pct, n = tail(jobs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "steps_per_s": (statistics.median(p["env_steps"] / p["wall_s"] for p in passes), "1/s"),
        "sims": (statistics.median(p["sims"] for p in passes), "count"),
        "job_ms_p50": (statistics.median(jobs), "ms"),
        "job_ms_tail": (job_tail, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [f"job = {'design job' if key == 'job_ms' else 'training iteration'};"
             f" job_ms_tail is p{pct:.2f} of {n} samples;"
             f" setup_s is the median of {len(setup)} set-ups;"
             f" wall_s, steps_per_s and sims are medians over {len(passes)} passes",
             f"threads: at most {run['threads_runnable']} runnable, budget nproc = {run['nproc']},"
             f" pool of {run['pool_threads']}"]
    return metrics, notes


def per_layer(probed, plain, attempted, failed):
    total = lambda key: sum(p[key] for p in probed)
    probe = lambda key: sum(p["probe"][key] for p in probed)
    wall = total("wall_s")
    inflight = probe("inflight_ns") * 1e-9
    outside = probe("outside_ns") * 1e-9
    sim_busy = probe("sim_busy_s")
    eval_busy = probe("eval_busy_s")
    batch_ms = [x for p in probed for x in p["probe"]["batch_ms"]]
    batch_tail, batch_pct, batch_n = tail(batch_ms)
    iter_ms = [x for p in probed for x in p.get("iter_ms", [])]
    lookups = total("cache_hits") + total("cache_misses")
    attempts = total("warm_start_attempts")
    ratio = lambda a, b: a / b if b else 0.0
    m = {
        "sim.busy_s": (sim_busy, "s"),
        "sim.us_per_point": (ratio(sim_busy * 1e6, probe("sim_points")), "us"),
        "sim.points": (probe("sim_points"), "count"),
        "sim.failed_points": (probe("sim_failed_points"), "count"),
        "spice.newton_iterations": (total("newton_iterations"), "count"),
        "spice.warm_start_hit_ratio": (ratio(total("warm_start_hits"), attempts), "ratio"),
        "linalg.numeric_factorizations": (total("numeric_factorizations"), "count"),
        "linalg.batch_lanes": (total("batch_lanes"), "count"),
        "linalg.batch_lane_fallbacks": (total("batch_lane_fallbacks"), "count"),
        "linalg.dense_fallbacks": (total("dense_fallbacks"), "count"),
        "eval.batch_calls": (len(batch_ms), "count"),
        "eval.points": (probe("eval_points"), "count"),
        "eval.busy_s": (eval_busy, "s"),
        "eval.inflight_s": (inflight, "s"),
        "eval.batch_ms_p50": (statistics.median(batch_ms), "ms"),
        "eval.batch_ms_tail": (batch_tail, "ms"),
        "eval.cache_hit_ratio": (ratio(total("cache_hits"), lookups), "ratio"),
        "eval.dup_sims": (probe("dup_sims"), "count"),
        "rl.outside_eval_s": (outside, "s"),
        "rl.iter_ms_p50": (statistics.median(iter_ms) if iter_ms else 0.0, "ms"),
        "rl.iterations": (len(iter_ms), "count"),
        "rl.env_steps": (total("env_steps"), "count"),
        "proc.cpu_s": (total("cpu_s"), "s"),
        "bench.wall_s": (wall, "s"),
        "bench.probe_overhead": (ratio(wall, sum(p["wall_s"] for p in plain)), "ratio"),
        "bench.sim_over_eval": (ratio(sim_busy, eval_busy), "ratio"),
        "fail_ratio": (ratio(failed, attempted), "ratio"),
    }
    notes = [
        f"per-layer figures are totals over {len(probed)} probed cases;"
        f" eval.batch_ms_tail is p{batch_pct:.2f} of {batch_n} calls",
        f"coverage: eval.inflight_s + rl.outside_eval_s = {inflight + outside:.6f} s"
        f" = bench.wall_s {wall:.6f} s (probed timed phases)",
        f"bench.sim_over_eval = sim.busy_s / eval.busy_s (base: eval.busy_s {eval_busy:.4f} s,"
        " summed over calling threads)",
        f"bases: eval.cache_hit_ratio over {lookups} lookups, spice.warm_start_hit_ratio over"
        f" {attempts} attempts, sim.us_per_point over {probe('sim_points')} points",
        f"bench.probe_overhead = probed wall / unprobed wall over the same cases"
        f" (base: {sum(p['wall_s'] for p in plain):.4f} s unprobed)",
    ]
    return m, notes


def print_table(metrics, notes):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")


# ---- modes -----------------------------------------------------------------------


def measure(args):
    binary = build()
    with open(REFERENCE) as f:
        reference = json.load(f)
    cases = case_list(args.workload, args.seconds, args.seed)
    run = run_binary(binary, args.workload, cases, args.trace)
    passes = run["passes"]
    attempted, failed, check_notes = check(args.workload, passes, reference)
    plain = [p for p in passes if not p["probed"]]
    e2e, notes = end_to_end(args.workload, plain, run)
    print(f"perfbench {args.workload} seed={args.seed} cases={cases} trace={args.trace}")
    print_table(e2e, notes + [f"fail_ratio = {failed}/{attempted} operations"] + check_notes)
    metrics = e2e
    if args.trace:
        probed = [p for p in passes if p["probed"]]
        metrics, layer_notes = per_layer(probed, plain, attempted, failed)
        print_table(metrics, layer_notes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def write_reference(args):
    binary = build()
    spec = WORKLOADS[args.workload]
    run = run_binary(binary, args.workload, spec["cases"], 0)
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)
    entry = {"cases": {}}
    for p in run["passes"]:
        ops, whole = outputs(args.workload, p)
        entry["cases"][str(p["case"])] = {"whole": whole, "ops": ops}
    reference[args.workload] = entry
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(entry['cases'])} cases of {args.workload} to {REFERENCE}")


def selftest(args):
    """Planted-slowdown check at the benchmark's own run length: alternate
    unprobed runs with runs whose leaf is made SELFTEST_SLOWDOWN times
    slower, and flag wall_s when the planted median is worse than the plain
    median by more than its bound."""
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    factors = (1.0, SELFTEST_SLOWDOWN)
    walls = {factor: [] for factor in factors}
    for i in range(SELFTEST_RUNS):
        cases = case_list(args.workload, spec["run_seconds"], args.seed + i)
        for factor in (factors if i % 2 == 0 else factors[::-1]):
            run = run_binary(binary, args.workload, cases, 0, factor)
            walls[factor].append(statistics.median(p["wall_s"] for p in run["passes"]))
    plain, planted = (statistics.median(walls[factor]) for factor in factors)
    worse = planted / plain - 1.0
    print(json.dumps({"workload": args.workload, "slowdown": SELFTEST_SLOWDOWN,
                      "runs": SELFTEST_RUNS, "seconds": spec["run_seconds"],
                      "wall_s_plain": walls[1.0], "wall_s_planted": walls[SELFTEST_SLOWDOWN],
                      "median_plain": plain, "median_planted": planted,
                      "worse_by": worse, "bound": bound, "flagged": worse > bound}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest(args)
    elif args.write_reference:
        write_reference(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
