#!/usr/bin/env python3
"""rvsym benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload campaign --seed 7 --seconds 25 --trace 1
    python3 perfbench/run.py --record-golden      # rewrite perfbench/golden.json

Each run builds the in-process driver (perfbench/driver.cpp, with the
rvsym libraries from src/) into .bench_build/perfbench, times the
workload's set-up in fresh driver processes, then lets one driver
process repeat the workload for --seconds. Every repetition's outcome
is checked against perfbench/golden.json. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, measured with every
observability hook off; with --trace 1 they are the per-layer ones from
traced repetitions. Details of every run (provenance, inputs, raw
repetitions, determinism report, folded stacks) are written to
.bench_build/perfbench-out/. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "rvsym_perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
GOLDEN = os.path.join(HERE, "golden.json")

# Set-up is timed as this many fresh driver processes that set up as a
# repetition would (inputs, session or runner) and exit; setup_s is their
# median. One launch takes about a millisecond.
SETUP_LAUNCHES = 25

# The campaign takes one op from each pool, so every seed judges a
# campaign of the shape of add,addi,xor,bne,lw (about 264 mutants): two
# R-type ALU ops, one I-type ALU op, one branch and one load. A pool
# holds ops whose mutants cost within a few percent of each other to
# judge, so the seed changes the inputs but not the amount of work.
# slt/sltu/slti/sltiu (30+ survivors each), the shifts and beq/bltu/bgeu
# cost 5-500% more than their class and are left out.
CAMPAIGN_CLASSES = [
    ["add", "sub", "sll"],
    ["xor", "or", "and"],
    ["addi", "xori", "ori", "andi"],
    ["bne", "blt", "bge"],
    ["lb", "lh", "lw", "lbu", "lhu"],
]
CAMPAIGN_HUNT_PATHS = 300

# Survivor candidates: stuck-at-0 on a low result bit of lui, which no
# bounded hunt can kill, so each one exhausts its path budget in SAT
# search. Of bits 0..11 these four cost within a few percent of each
# other (the rest up to 40% more). At 10 paths per hunt a judgement takes
# about 3 s, 97% of it in SAT, so several fit in one run: single
# judgements of this SAT-bound work vary 10-30% on a shared host.
SURVIVOR_CANDIDATES = ["stuck:lui:b%d=0" % b for b in (2, 3, 8, 10)]
SURVIVOR_HUNT_PATHS = 10

END_TO_END = [
    ("wall_s", "s"), ("paths_per_s", "1/s"), ("verdict_p50_ms", "ms"),
    ("verdict_p95_ms", "ms"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("solver.testvector_model_s", "s"), ("solver.inpath_s", "s"),
    ("solver.inpath_other_s", "s"), ("solver.sat_s", "s"),
    ("solver.bitblast_s", "s"), ("solver.sat_solves", "count"),
    ("solver.slow_queries", "count"), ("solver.sat_p99_us", "us"),
    ("solver.qcache_hits", "count"), ("solver.qcache_misses", "count"),
    ("solver.qcache_hit_ratio", "ratio"), ("solver.cex_model_hits", "count"),
    ("solver.cex_core_hits", "count"), ("solver.rewrite_decided", "count"),
    ("solver.sliced_solves", "count"), ("symex.paths_committed", "count"),
    ("symex.instructions", "count"), ("symex.branches", "count"),
    ("symex.solver_checks", "count"), ("symex.knownbits_decided", "count"),
    ("symex.knownbits_ratio", "ratio"), ("symex.test_vectors", "count"),
    ("symex.path_self_s", "s"), ("symex.outside_path_s", "s"),
    ("symex.worker_busy_ratio", "ratio"), ("symex.commit_wait_s", "s"),
    ("symex.paths_executed_minus_committed", "count"), ("core.rtl_s", "s"),
    ("core.iss_s", "s"), ("core.voter_s", "s"), ("mut.killed", "count"),
    ("mut.survived", "count"), ("mut.equivalent", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
]

# Counters a later change may base a claim on if they repeat exactly.
REPEAT_COUNTERS = ["symex.paths_committed", "symex.instructions",
                   "symex.solver_checks", "symex.test_vectors",
                   "solver.sat_solves"]


def campaign_ops(seed):
    rng = random.Random(seed)
    return [rng.choice(pool) for pool in CAMPAIGN_CLASSES]


def workload_inputs(name, seed):
    """Driver arguments and a description of the inputs for one run.

    The sweeps take no random input: the seed is ignored. The campaign's
    op subset and the survivor mutant are drawn from the seed.
    """
    if name == "sweep":
        return ["--kind", "sweep", "--jobs", "1"], {"seeded": False}
    if name == "sweep_j4":
        return ["--kind", "sweep", "--jobs", "4"], {"seeded": False}
    if name == "campaign":
        ops = campaign_ops(seed)
        return (["--kind", "campaign", "--ops", ",".join(ops),
                 "--hunt-paths", str(CAMPAIGN_HUNT_PATHS)],
                {"seeded": True, "ops": ops})
    if name == "survivor_hunt":
        mutant = random.Random(seed).choice(SURVIVOR_CANDIDATES)
        return (["--kind", "campaign", "--mutants", mutant,
                 "--hunt-paths", str(SURVIVOR_HUNT_PATHS)],
                {"seeded": True, "mutant": mutant})
    raise ValueError(name)


WORKLOADS = ["sweep", "sweep_j4", "campaign", "survivor_hunt"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_driver(args):
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def time_setup(args):
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run([DRIVER] + args + ["--setup-only"],
                              stderr=sys.stderr)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up exited with %d" % proc.returncode)
    return statistics.median(times)


def tail_percentile(values):
    """The 95th percentile, or, with fewer than 200 samples, the highest
    percentile that still has ten samples beyond it (never below the
    median): a tail estimate resting on one or two samples is noise.
    """
    q = min(0.95, max(0.5, 1 - 10 / len(values)))
    if len(values) == 1 or q == 0.5:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def golden_units(workload, rep, golden, inputs):
    """(attempted, failed) units of one repetition against the golden record.

    Sweeps: one unit per finding key (missing or extra fails) plus one for
    the deterministic report fields and the finding order. Campaigns: one
    unit per expected mutant (verdict, kill limit and kill message must
    match) plus one per unexpected mutant.
    """
    if workload in ("sweep", "sweep_j4"):
        want = golden["sweep"]
        got_keys, want_keys = set(rep["findings"]), set(want["findings"])
        attempted = len(got_keys | want_keys) + 1
        failed = len(got_keys ^ want_keys)
        if rep["report"] != want["report"] or rep["findings"] != want["findings"]:
            failed += 1
        return attempted, failed
    if workload == "campaign":
        want = {}
        for op in inputs["ops"]:
            for mid in golden["campaign_ops"][op]:
                want[mid] = golden["campaign"][mid]
    else:
        want = {inputs["mutant"]: golden["survivor_hunt"][inputs["mutant"]]}
    got = rep["verdicts"]
    attempted = len(set(want) | set(got))
    failed = sum(1 for mid in set(want) | set(got) if want.get(mid) != got.get(mid))
    return attempted, failed


def provenance(driver_prov):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    prov = dict(driver_prov)
    prov["nproc"] = len(os.sched_getaffinity(0))
    prov["git_commit"] = commit
    prov["flagged"] = prov["build_type"] == "Debug" or prov["assertions"]
    return prov


def end_to_end(reps, peak_rss_mb, setup_s):
    untraced = [r for r in reps if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in untraced)
    verdicts = [ms for r in untraced for ms in r["verdict_ms"]]
    return {
        "wall_s": wall,
        "paths_per_s": untraced[0]["paths"] / wall,
        "verdict_p50_ms": statistics.median(verdicts),
        "verdict_p95_ms": tail_percentile(verdicts),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }, len(verdicts)


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name, _ in PER_LAYER if name != "obs.trace_overhead_ratio"}
    metrics["obs.trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) /
        statistics.median(r["wall_s"] for r in untraced) - 1)
    repeats = {name: len({r["layers"][name] for r in traced}) == 1
               for name in REPEAT_COUNTERS}
    return metrics, repeats


def measure(args):
    golden = json.load(open(GOLDEN))
    driver_args, inputs = workload_inputs(args.workload, args.seed)
    log("perfbench: %s seed %d inputs %s" % (args.workload, args.seed,
                                             json.dumps(inputs)))
    setup_s = time_setup(driver_args)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    run_args = driver_args + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--folded-out", stem + ".folded"]
    doc = run_driver(run_args)
    reps = doc["reps"]
    prov = provenance(doc["provenance"])
    if prov["flagged"]:
        log("perfbench: WARNING: %s build with assertions=%s; timings are not "
            "representative" % (prov["build_type"], prov["assertions"]))

    attempted = failed = 0
    for rep in reps:
        a, f = golden_units(args.workload, rep, golden, inputs)
        attempted += a
        failed += f

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
              "provenance": prov, "reps": len(reps),
              "fail_ratio": failed / attempted}
    if args.trace:
        metrics, repeats = per_layer(reps)
        units = dict(PER_LAYER)
        detail["repeats_exactly"] = repeats
        print("counters repeating exactly across traced repetitions: " +
              ", ".join("%s=%s" % (k, "yes" if v else "no")
                        for k, v in repeats.items()))
    else:
        metrics, samples = end_to_end(reps, doc["peak_rss_mb"], setup_s)
        units = dict(END_TO_END)
        detail["verdict_samples"] = samples
    detail["metrics"] = metrics
    detail["raw_reps"] = [{k: v for k, v in r.items()
                           if k not in ("verdicts", "findings")} for r in reps]
    with open(stem + ".json", "w") as f:
        json.dump(detail, f, indent=1)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("fail_ratio: %d / %d" % (failed, attempted))
    for name, value in metrics.items():
        print("  %-40s %16.6f %s" % (name, value, units[name]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def record_golden():
    """Judges every input any seed can pick and writes golden.json."""
    sweep = run_driver(["--kind", "sweep", "--jobs", "1", "--seconds", "0",
                        "--trace", "0"])["reps"][0]
    pool = sorted({op for cls in CAMPAIGN_CLASSES for op in cls})
    campaign, campaign_ops = {}, {}
    for op in pool:
        rep = run_driver(["--kind", "campaign", "--ops", op, "--hunt-paths",
                          str(CAMPAIGN_HUNT_PATHS), "--seconds", "0",
                          "--trace", "0"])["reps"][0]
        campaign_ops[op] = list(rep["verdicts"])
        campaign.update(rep["verdicts"])
    survivors = run_driver(["--kind", "campaign", "--mutants",
                            ",".join(SURVIVOR_CANDIDATES), "--hunt-paths",
                            str(SURVIVOR_HUNT_PATHS), "--seconds", "0",
                            "--trace", "0"])["reps"][0]["verdicts"]
    golden = {"sweep": {"findings": sweep["findings"], "report": sweep["report"]},
              "campaign_ops": campaign_ops, "campaign": campaign,
              "survivor_hunt": survivors}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: wrote " + GOLDEN)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not args.record_golden and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    try:
        return record_golden() if args.record_golden else measure(args)
    except (RuntimeError, ValueError, KeyError, OSError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
