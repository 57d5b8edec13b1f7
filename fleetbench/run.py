#!/usr/bin/env python3
"""Fleet benchmark: builds the binary from source, runs one workload,
checks its outputs, and prints every metric by name and unit.

  python3 fleetbench/run.py --workload cold_fleet --seed 1 --seconds 15
  python3 fleetbench/run.py --workload diurnal_zswap --seed 1 --trace 1
  python3 fleetbench/run.py --manifest > BENCHMARK.json
  python3 fleetbench/run.py --record-heldout

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the binary runs once
untraced and once traced, and the metrics are the per-layer ones
(self time per span name and the tracing overhead are printed above).
Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
HELDOUT_SEED = 90917
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "fleetbench")


def build():
    """Configures and builds the binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "fleetbench")


def run_binary(binary, args, trace):
    """One run of the binary; returns its parsed JSON result."""
    tag = "%s-%d-%d-%d" % (args.workload, args.seed, trace, os.getpid())
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", args.scale,
           "--ckpt", os.path.join(runs, tag + ".ckpt"),
           "--spans", os.path.join(runs, tag + ".spans.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        raw["spans_path"] = cmd[-1]
        with open(cmd[-1]) as f:
            raw["spans"] = json.load(f)["spans"]
    return raw


def fmt(value):
    return "%.6g" % value


def print_table(title, rows):
    print("\n" + title)
    width = max(len(r[0]) for r in rows)
    for row in rows:
        print("  %-*s  %s" % (width, row[0], "  ".join(row[1:])))


def report_checks(raw, run):
    rows = [(c["name"], "ok" if c["ok"] else "FAILED", c["detail"])
            for c in raw["checks"]]
    print_table("correctness checks (%s run)" % run, rows)
    return all(c["ok"] for c in raw["checks"])


def report_end_to_end(raw, values):
    units = {n: u for n, u, _, _, _ in metrics.END_TO_END}
    _, pct, n = metrics.tail(raw["step_ms"])
    sim = raw["sim"]
    notes = {
        "step_ms_tail": "(p%.2f of %d steps)" % (pct, n),
        "step_ms_p50": "(%d steps)" % n,
        "jobs_ok_pct": "(%d killed of %d placements)" % (
            sim["killed"], sim["placements"]),
        "tuned_captured_pages": "(pick K %s, S %ds; p98 %s %%/min over "
                                "%d jobs)" % (
            fmt(raw["tuned_k"]), raw["tuned_s"], fmt(raw["tuned_p98_pct"]),
            raw["tune_traces"]),
    }
    rows = [(name, fmt(values[name]), units[name], notes.get(name, ""))
            for name, _, _, _, _ in metrics.END_TO_END]
    print_table("end-to-end metrics (%s, seed %d)" % (
        raw["workload"], raw["seed"]), rows)

    outcomes = metrics.simulated(raw)
    rows = [
        ("promo_p98_pct", fmt(outcomes["promo_p98_pct"]), "%/min",
         "(p98 over %d jobs)" % sim["promo_jobs"]),
        ("failed_pct", fmt(outcomes["failed_pct"]), "%", ""),
        ("state_digest", raw["state_digest"], "", "(end of fixed phase)"),
    ]
    print_table("simulated outcomes, not gated (repeat exactly per seed)",
                rows)


def report_per_layer(values, traced, plain):
    units = {n: u for n, u, _, _, _ in metrics.PER_LAYER}
    rows = [(name, fmt(values[name]), units[name], "-> %s" % moves)
            for name, _, _, moves, _ in metrics.PER_LAYER]
    print_table("per-layer metrics (traced run)", rows)

    selfs = metrics.self_times(traced["spans"])
    rows = [(name, "%.4f s" % secs, "%d calls" % calls)
            for name, (secs, calls) in sorted(
                selfs.items(), key=lambda kv: -kv[1][0])]
    print_table("self time per span (spans in %s)" % traced["spans_path"],
                rows)

    on, off = metrics.end_to_end(traced), metrics.end_to_end(plain)
    rows = [(name, fmt(on[name] - off[name]), unit,
             "(traced %s, untraced %s)" % (fmt(on[name]), fmt(off[name])))
            for name, unit, _, _, _ in metrics.END_TO_END
            if unit in ("s", "ms", "min/s")]
    print_table("tracing overhead (traced - untraced)", rows)


def result_line(correct, attempted, values, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    })


def record_heldout(binary):
    """Runs every workload at the held-out seed and stores its simulated
    outcomes and digest in heldout.json."""
    record = {"seed": HELDOUT_SEED, "workloads": {}}
    for name, _ in metrics.WORKLOADS:
        args = argparse.Namespace(workload=name, seed=HELDOUT_SEED,
                                  seconds=1, scale="full")
        raw = run_binary(binary, args, 0)
        entry = metrics.simulated(raw)
        entry["state_digest"] = raw["state_digest"]
        record["workloads"][name] = entry
    with open(os.path.join(HERE, "heldout.json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    names = [n for n, _ in metrics.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few machines, for smoke tests")
    p.add_argument("--manifest", action="store_true",
                   help="print BENCHMARK.json and exit")
    p.add_argument("--record-heldout", action="store_true",
                   help="rewrite heldout.json at the held-out seed")
    args = p.parse_args()

    if args.manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if not args.workload and not args.record_heldout:
        p.error("--workload is required")

    try:
        binary = build()
        if args.record_heldout:
            record_heldout(binary)
            return 0
        plain = run_binary(binary, args, 0)
        traced = run_binary(binary, args, 1) if args.trace else None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        log("fleetbench: %s" % e)
        return 1

    correct = report_checks(plain, "untraced")
    e2e = metrics.end_to_end(plain)
    report_end_to_end(plain, e2e)
    attempted = plain["attempted"]
    if traced is None:
        values = e2e
        units = {n: u for n, u, _, _, _ in metrics.END_TO_END}
    else:
        correct = report_checks(traced, "traced") and correct
        if traced["state_digest"] != plain["state_digest"]:
            log("fleetbench: traced run diverged from the untraced one")
            correct = False
        values = metrics.per_layer(traced, plain, traced["spans"])
        report_per_layer(values, traced, plain)
        units = {n: u for n, u, _, _, _ in metrics.PER_LAYER}
        attempted += traced["attempted"]
    print(result_line(correct, attempted, values, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
