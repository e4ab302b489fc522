#!/usr/bin/env python3
"""End-to-end HTPGM benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`) and runs one
mining job per process until the jobs have taken `--seconds`. The jobs
cycle through two households generated from the seed (its own and a
derived one). Every job's pattern set is checked against a reference
mined by the plain sequential, unsharded miner on the same input;
references are cached under `perfbench/.cache`, keyed by the job binary,
workload and household seed.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates traced
and untraced jobs on the seed's own household and reports the per-layer
metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
TRACE_DIR = HERE / ".trace"

DEFAULT_SEED = 0x4E157  # the nist preset's seed
# A run ends (build excluded) well inside the 180 s a run may take.
DEADLINE_S = 165.0
LEVELS = (2, 3, 4, 5)

# The job binary holds each workload's configuration.
WORKLOADS = ("deep_patterns", "long_approx", "sharded_exchange")
# Generated households an untraced run mines, one job each per round.
# The work itself changes between households (deep_patterns' pattern count
# ranges from about 660k to 1.0M), so a run averages over two of them.
HOUSEHOLDS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release"


def run_child(cmd, deadline):
    """Runs one job process; returns (parsed last stdout line or None, error)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the run's deadline"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError) as e:
        return None, f"unreadable output: {e}"


def reference(bin_dir, workload, seed, deadline):
    """The sequential reference's digest and counters, cached per binary."""
    job_bin = bin_dir / "perfbench-job"
    tag = hashlib.sha256(job_bin.read_bytes()).hexdigest()[:16]
    path = CACHE / f"{workload}-{seed}-{tag}.json"
    if path.exists():
        return json.loads(path.read_text())
    t0 = time.monotonic()
    ref, err = run_child([str(job_bin), "--workload", workload, "--seed", str(seed),
                          "--mode", "ref"], deadline)
    if ref is None or ref["sink_error"] is not None:
        sys.exit(f"perfbench: reference run failed: {err or ref['sink_error']}")
    log(f"reference computed in {time.monotonic() - t0:.1f} s")
    CACHE.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref))
    return ref


def household_seed(seed, h):
    """The generator seed of household `h`; household 0 is `seed` itself."""
    if h == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{h}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def check(job, ref):
    """Why the job's output differs from the reference, or None."""
    if job["sink_error"] is not None:
        return f"sink error: {job['sink_error']}"
    if job["digest"] != ref["digest"] or job["patterns"] != ref["patterns"]:
        return (f"pattern set differs: {job['patterns']:.0f} patterns, digest "
                f"{job['digest']}; reference {ref['patterns']:.0f}, {ref['digest']}")
    return None


def counters(job):
    """The counts that must repeat exactly across the jobs of one run."""
    return (job["stats"], [(s["proposed"], s["pruned"]) for s in job["shards"]])


def med(values):
    return statistics.median(values) if values else 0.0


def per_layer(traced, untraced, ref):
    """Per-layer metrics: medians over the traced jobs, plus ratios
    against the untraced jobs of the same run."""
    def layer(name):
        return med([j["layers"].get(name, 0.0) for j in traced])

    def stat(key, level):
        i = level - 2
        return med([j["stats"][key][i] if i < len(j["stats"][key]) else 0 for j in traced])

    m = {}
    for name in ("timeseries.symbolize_s", "events.convert_s", "events.instances",
                 "shard.plan_s", "mi.graph_s", "mi.pairs", "mi.edges",
                 "mi.events_kept_frac", "miner.self_s"):
        m[name] = layer(name)
    for level in LEVELS:
        verified = stat("nodes_verified", level)
        kept = stat("nodes_kept", level)
        m[f"miner.nodes_verified.l{level}"] = verified
        m[f"miner.nodes_kept.l{level}"] = kept
        m[f"miner.node_yield.l{level}"] = kept / verified if verified else 0.0
    patterns = med([j["patterns"] for j in traced])
    checks = med([j["stats"]["instance_checks"] for j in traced])
    m["miner.instance_checks"] = checks
    m["miner.checks_per_pattern"] = checks / patterns if patterns else 0.0
    m["miner.apriori_pruned"] = med([j["stats"]["apriori_pruned"] for j in traced])
    m["miner.transitivity_pruned"] = med([j["stats"]["transitivity_pruned"] for j in traced])

    traced_mine = med([j["mine_s"] for j in traced])
    m["sink.busy_s"] = layer("sink.busy_s")
    m["sink.share"] = med([j["layers"]["sink.busy_s"] / j["mine_s"] for j in traced])
    m["sink.node_calls"] = layer("sink.node_calls")
    m["sink.patterns"] = patterns
    m["sink.bytes"] = layer("sink.bytes")
    m["sink.first_emit_s"] = layer("sink.first_emit_s")

    threads = traced[0]["threads"]
    ex = {k: 0.0 for k in ("proposed", "pruned", "gate_yield", "verify_amplification",
                           "shard_busy_s", "shard_busy_max_s", "shard_imbalance",
                           "outside_shards_s", "self_s")}
    if traced[0]["shards"]:
        def per_job(f):
            return med([f(j) for j in traced])
        ex["proposed"] = per_job(lambda j: sum(s["proposed"] for s in j["shards"]))
        ex["pruned"] = per_job(lambda j: sum(s["pruned"] for s in j["shards"]))
        ex["gate_yield"] = (ex["proposed"] - ex["pruned"]) / ex["proposed"] if ex["proposed"] else 0.0
        ref_verified = sum(ref["stats"]["nodes_verified"])
        ex["verify_amplification"] = per_job(
            lambda j: sum(j["stats"]["nodes_verified"]) / ref_verified)
        walls = [[s["wall_s"] for s in j["shards"]] for j in traced]
        ex["shard_busy_s"] = med([sum(w) for w in walls])
        ex["shard_busy_max_s"] = med([max(w) for w in walls])
        ex["shard_imbalance"] = med([max(w) / statistics.mean(w) for w in walls])
        ex["outside_shards_s"] = med(
            [j["mine_s"] - sum(w) / min(threads, len(w)) for j, w in zip(traced, walls)])
        ex["self_s"] = layer("exchange.self_s")
    for key, value in ex.items():
        m[f"exchange.{key}"] = value

    mine = med([j["mine_s"] for j in untraced])
    cpu = med([j["mine_cpu_s"] for j in untraced])
    m["parallel.utilization"] = cpu / (mine * threads) if mine else 0.0
    alloc_count = layer("alloc.count")
    m["alloc.count"] = alloc_count
    m["alloc.per_pattern"] = alloc_count / patterns if patterns else 0.0
    m["heap.peak_mb"] = layer("heap.peak_mb")
    m["job.self_s"] = layer("job.self_s")
    m["trace.self_sum_frac"] = med(
        [j["layers"]["trace.self_sum_s"] / j["layers"]["trace.job_s"] for j in traced])
    m["trace.overhead"] = traced_mine / mine - 1 if mine else 0.0
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bin_dir = build()
    deadline = time.monotonic() + DEADLINE_S
    # The traced run mines the seed's own household, so its counts are
    # that input's (the ROADMAP baseline on the default seed).
    seeds = [household_seed(args.seed, h) for h in range(1 if args.trace else HOUSEHOLDS)]
    refs = {seed: reference(bin_dir, args.workload, seed, deadline) for seed in seeds}

    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{args.workload}.tsv"
    jobs, failures, attempted = [], [], 0
    min_jobs = 2 if args.trace else len(seeds)
    t0 = time.monotonic()
    longest = 0.0
    while True:
        seed = seeds[attempted % len(seeds)]
        traced = args.trace == 1 and attempted % 2 == 0
        cmd = [str(bin_dir / ("perfbench-job-traced" if traced else "perfbench-job")),
               "--workload", args.workload, "--seed", str(seed), "--mode", "job"]
        if traced:
            cmd += ["--trace-out", str(trace_file)]
        started = time.monotonic()
        attempted += 1
        job, err = run_child(cmd, deadline)
        longest = max(longest, time.monotonic() - started)
        if job is not None:
            job.update(traced=traced, seed=seed)
            jobs.append(job)
            err = check(job, refs[seed])
        if err is not None:
            failures.append(err)
            log(f"job {attempted} failed: {err}")
        enough = time.monotonic() - t0 >= args.seconds and attempted >= min_jobs
        if enough or time.monotonic() + 1.5 * longest > deadline:
            break

    by_seed = {}
    for j in jobs:
        by_seed.setdefault(j["seed"], []).append(j)
    steady = all(len({json.dumps(counters(j), sort_keys=True) for j in js}) == 1
                 for js in by_seed.values())
    if not steady:
        log("run counters differ between jobs on one input")
    correct = not failures and steady and len(by_seed) == len(seeds)

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    if args.trace == 0:
        # The median job on each household, averaged over the households.
        values = {m["name"]: statistics.mean(med([j[m["name"]] for j in js])
                                             for js in by_seed.values())
                  for m in listed} if by_seed else {}
    else:
        traced_jobs = [j for j in jobs if j["traced"]]
        untraced_jobs = [j for j in jobs if not j["traced"]]
        values = (per_layer(traced_jobs, untraced_jobs, refs[seeds[0]])
                  if traced_jobs and untraced_jobs else {})
        mismatch = {m["name"] for m in listed} ^ set(values)
        if values and mismatch:
            sys.exit(f"perfbench: per-layer metrics out of step with BENCHMARK.json: {mismatch}")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs")
    for seed in seeds:
        print(f"  household seed {seed}: {refs[seed]['patterns']:.0f} reference patterns, "
              f"{len(by_seed.get(seed, []))} jobs")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    for name, metric in metrics.items():
        print(f"  {name:34} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':34} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} jobs)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
