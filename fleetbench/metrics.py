"""Metric definitions and the arithmetic that turns the raw
measurements of the benchmark binary into them.

END_TO_END and PER_LAYER are the single table of every metric the
benchmark reports: BENCHMARK.json is generated from them
(run.py --manifest), and README.md documents the same rows.
"""

import statistics

WORKLOADS = [
    ("cold_fleet",
     "128 machines of a ~97%-frozen mix: page-metadata walks and "
     "checkpointing dominate, codec and deep tiers are bypassed"),
    ("diurnal_zswap",
     "40 machines of the typical diurnal mix on the real szo codec with "
     "verified round trips: access generation, promotion and the "
     "autotuner dominate"),
    ("tiered_faults",
     "64 machines of the same mix over zswap, NVM and lease-pooled "
     "remote tiers with breakers and faults on: routing, pooling and "
     "failure handling"),
]

# (name, unit, better, bound, what it measures). Host times are
# measured with tracing off; simulated values repeat exactly per seed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of repeated fleet construction plus populate"),
    ("sim_machine_min_per_s", "min/s", "higher", 0.25,
     "simulated machine-minutes per host second over all timed steps"),
    ("step_ms_p50", "ms", "lower", 0.25,
     "median host time of one fleet step"),
    ("step_ms_tail", "ms", "lower", 0.25,
     "highest step-time percentile with at least 10 steps beyond it"),
    ("peak_rss_mib", "MiB", "lower", 0.25,
     "peak resident memory of the benchmark process"),
    ("ckpt_s", "s", "lower", 0.25,
     "median time to checkpoint the fleet to a file"),
    ("restore_s", "s", "lower", 0.25,
     "median time to restore the checkpoint into a fresh fleet"),
    ("tune_s", "s", "lower", 0.25,
     "wall time of Autotuner::run over the tiled steady-state traces"),
    ("coverage_pct", "%", "higher", 0.15,
     "fleet cold-memory coverage at the end of the fixed phase"),
    ("cpu_overhead_pct", "%", "lower", 0.25,
     "fleet median of modeled far-memory cycles over app cycles"),
    ("tco_savings_pct", "%", "higher", 0.25,
     "TcoModel on coverage, cold fraction and median compression ratio"),
    ("tuned_captured_pages", "pages", "higher", 0.25,
     "model's captured pages at the autotuner's pick"),
    ("jobs_ok_pct", "%", "higher", 0.05,
     "job placements not killed (OOM, fault, forced lease kill); "
     "100 - failed_pct"),
]

# (name, unit, better, end-to-end metric it moves, workload that shows
# it). Count metrics are deltas over the timed window, per step.
PER_LAYER = [
    ("core.step_ms", "ms", "lower", "sim_machine_min_per_s", "all"),
    ("core.populate_s", "s", "lower", "setup_s", "all"),
    ("kstaled.pages_scanned", "1/step", "lower", "sim_machine_min_per_s",
     "cold_fleet"),
    ("kstaled.accessed_ratio", "ratio", "higher", "sim_machine_min_per_s",
     "cold_fleet"),
    ("kreclaimd.pages_walked", "1/step", "lower", "sim_machine_min_per_s",
     "cold_fleet"),
    ("kreclaimd.store_yield", "ratio", "higher", "sim_machine_min_per_s",
     "cold_fleet"),
    ("mem.ns_per_page_walked", "ns", "lower", "sim_machine_min_per_s",
     "cold_fleet"),
    ("workload.accesses", "1/step", "higher", "sim_machine_min_per_s",
     "diurnal_zswap"),
    ("workload.ns_per_access", "ns", "lower", "sim_machine_min_per_s",
     "diurnal_zswap"),
    ("zswap.stores", "1/step", "higher", "coverage_pct", "diurnal_zswap"),
    ("zswap.promotions", "1/step", "lower", "coverage_pct", "diurnal_zswap"),
    ("zswap.reject_ratio", "ratio", "lower", "tco_savings_pct",
     "diurnal_zswap"),
    ("zsmalloc.bytes_per_stored_page", "B", "lower", "tco_savings_pct",
     "diurnal_zswap"),
    ("compression.ratio_p50", "x", "higher", "tco_savings_pct",
     "diurnal_zswap"),
    ("compression.verified_roundtrips", "1/step", "higher", "cpu_overhead_pct",
     "diurnal_zswap"),
    ("agent.control_rounds", "1/step", "higher", "coverage_pct", "all"),
    ("controller.updates", "1/step", "higher", "coverage_pct", "all"),
    ("agent.slo_violations", "1/step", "lower", "coverage_pct", "all"),
    ("agent.threshold_mean", "bucket", "lower", "coverage_pct", "all"),
    ("agent.promo_p98_pct", "%/min", "lower", "coverage_pct", "all"),
    ("tier.nvm.demotions", "1/step", "higher", "coverage_pct",
     "tiered_faults"),
    ("tier.remote.demotions", "1/step", "higher", "coverage_pct",
     "tiered_faults"),
    ("tier.nvm.utilization", "ratio", "higher", "coverage_pct",
     "tiered_faults"),
    ("tier.remote.utilization", "ratio", "higher", "coverage_pct",
     "tiered_faults"),
    ("pool.leases_granted", "1/step", "higher", "jobs_ok_pct",
     "tiered_faults"),
    ("pool.revocations", "1/step", "lower", "jobs_ok_pct", "tiered_faults"),
    ("pool.grace_drains", "1/step", "lower", "jobs_ok_pct", "tiered_faults"),
    ("pool.forced_kills", "1/step", "lower", "jobs_ok_pct", "tiered_faults"),
    ("fault.injected", "1/step", "lower", "jobs_ok_pct", "tiered_faults"),
    ("fault.jobs_killed", "1/step", "lower", "jobs_ok_pct", "tiered_faults"),
    ("fault.tier_breaker_opens", "1/step", "lower", "coverage_pct",
     "tiered_faults"),
    ("ckpt.save_s", "s", "lower", "ckpt_s", "cold_fleet"),
    ("ckpt.load_s", "s", "lower", "restore_s", "cold_fleet"),
    ("ckpt.file_mib", "MiB", "lower", "ckpt_s", "cold_fleet"),
    ("core.digest_ms", "ms", "lower", "restore_s", "cold_fleet"),
    ("workload.trace_extract_ms", "ms", "lower", "tune_s", "diurnal_zswap"),
    ("model.eval_ms", "ms", "lower", "tune_s", "diurnal_zswap"),
    ("model.windows_per_s", "1/s", "higher", "tune_s", "diurnal_zswap"),
    ("autotune.gp_ms", "ms", "lower", "tune_s", "diurnal_zswap"),
    ("telemetry.rollup_ms", "ms", "lower", "sim_machine_min_per_s", "all"),
    ("trace.step_ms_p50_overhead", "ms", "lower", "step_ms_p50", "all"),
    ("trace.sim_rate_overhead_pct", "%", "lower", "sim_machine_min_per_s",
     "all"),
]

def simulated(raw):
    """Every simulated outcome of one run result; each repeats
    exactly for a given seed. Those steady enough across seeds are
    end-to-end metrics; every run prints the rest, and heldout.json
    records them."""
    sim = raw["sim"]
    placements = sim["placements"]
    failed = 100.0 * sim["killed"] / placements if placements else 0.0
    return {
        "coverage_pct": sim["coverage_pct"],
        "cpu_overhead_pct": sim["cpu_overhead_pct"],
        "tco_savings_pct": sim["tco_savings_pct"],
        "jobs_ok_pct": 100.0 - failed,
        "promo_p98_pct": sim["promo_p98_pct"],
        "tuned_captured_pages": raw["tuned_captured_pages"],
        "failed_pct": failed,
    }


# Steps that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def manifest():
    """The BENCHMARK.json object."""
    return {
        "command": ["python3", "fleetbench/run.py"],
        "paths": ["fleetbench"],
        "run_seconds": 15,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _, _ in PER_LAYER
        ],
    }


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, samples) of the highest nearest-rank
    percentile with at least `beyond` samples above it. With too few
    samples, the maximum at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, n


def self_times(spans):
    """Per span name: (self seconds, calls). A span's self time is its
    duration minus the part of it its direct children cover; spans are
    [name, start_ns, end_ns, parent_index]."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start - child_ns[i]) / 1e9, calls + 1)
    return out


def durations(spans, name):
    """Seconds of every span called `name`."""
    return [(end - start) / 1e9 for n, start, end, _ in spans if n == name]


def end_to_end(raw):
    """End-to-end metric values from one untraced run result."""
    steps = raw["step_ms"]
    sim = simulated(raw)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "sim_machine_min_per_s": raw["sim_machine_min_per_s"],
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail(steps)[0],
        "peak_rss_mib": raw["peak_rss_mib"],
        "ckpt_s": statistics.median(raw["ckpt_s"]),
        "restore_s": statistics.median(raw["restore_s"]),
        "tune_s": statistics.median(raw["tune_s"]),
        "coverage_pct": sim["coverage_pct"],
        "cpu_overhead_pct": sim["cpu_overhead_pct"],
        "tco_savings_pct": sim["tco_savings_pct"],
        "tuned_captured_pages": sim["tuned_captured_pages"],
        "jobs_ok_pct": sim["jobs_ok_pct"],
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced, spans):
    """Per-layer metric values from a traced run result, the spans
    it wrote, and an untraced result of the same workload and seed."""
    start, end = traced["window_start"], traced["window_end"]
    steps = len(traced["step_ms"])
    machines = traced["machines"]

    def delta(name):
        return end[name] - start[name]

    def per_step(name):
        return delta(name) / steps

    step_ns = sum(durations(spans, "core.step")) * 1e9
    walked = delta("kstaled.pages_scanned") + delta("kreclaimd.pages_walked")
    eval_s = traced["model_eval_s"]
    evals = traced["model_evals"]
    traced_e2e = end_to_end(traced)
    plain_e2e = end_to_end(untraced)
    return {
        "core.step_ms": 1e3 * statistics.median(durations(spans,
                                                          "core.step")),
        "core.populate_s": statistics.median(durations(spans,
                                                       "core.populate")),
        "kstaled.pages_scanned": per_step("kstaled.pages_scanned"),
        "kstaled.accessed_ratio": _ratio(delta("kstaled.pages_accessed"),
                                         delta("kstaled.pages_scanned")),
        "kreclaimd.pages_walked": per_step("kreclaimd.pages_walked"),
        "kreclaimd.store_yield": _ratio(delta("kreclaimd.pages_stored"),
                                        delta("kreclaimd.pages_walked")),
        "mem.ns_per_page_walked": _ratio(step_ns, walked),
        "workload.accesses": per_step("machine.accesses"),
        "workload.ns_per_access": _ratio(step_ns,
                                         delta("machine.accesses")),
        "zswap.stores": per_step("zswap.stores"),
        "zswap.promotions": per_step("zswap.promotions"),
        "zswap.reject_ratio": _ratio(
            delta("zswap.rejects"),
            delta("zswap.rejects") + delta("zswap.stores")),
        "zsmalloc.bytes_per_stored_page": _ratio(
            end["zswap.arena_bytes"], end["zswap.stored_pages"]),
        "compression.ratio_p50": traced["compression_ratio_p50"],
        "compression.verified_roundtrips":
            per_step("zswap.verified_roundtrips"),
        "agent.control_rounds": per_step("agent.control_rounds"),
        "controller.updates": per_step("controller.updates"),
        "agent.slo_violations": per_step("agent.slo_violations"),
        "agent.threshold_mean": _ratio(end["agent.threshold_sum"],
                                       end["agent.jobs"]),
        "agent.promo_p98_pct": traced["sim"]["promo_p98_pct"],
        "tier.nvm.demotions": per_step("tier.nvm.demotions"),
        "tier.remote.demotions": per_step("tier.remote.demotions"),
        "tier.nvm.utilization": end["tier.nvm.utilization"] / machines,
        "tier.remote.utilization":
            end["tier.remote.utilization"] / machines,
        "pool.leases_granted": per_step("pool.leases_granted"),
        "pool.revocations": per_step("pool.revocations"),
        "pool.grace_drains": per_step("pool.grace_drains"),
        "pool.forced_kills": per_step("pool.forced_kills"),
        "fault.injected": per_step("fault.injected"),
        "fault.jobs_killed": per_step("fault.jobs_killed"),
        "fault.tier_breaker_opens": per_step("fault.tier_breaker_opens"),
        "ckpt.save_s": statistics.median(durations(spans, "ckpt.save")),
        "ckpt.load_s": statistics.median(durations(spans, "ckpt.load")),
        "ckpt.file_mib": traced["ckpt_bytes"] / 2**20,
        "core.digest_ms": traced["digest_ms"],
        "workload.trace_extract_ms": traced["trace_extract_ms"],
        "model.eval_ms": 1e3 * _ratio(eval_s, evals),
        "model.windows_per_s": _ratio(evals * traced["model_windows"],
                                      eval_s),
        "autotune.gp_ms": 1e3 * (statistics.median(traced["tune_s"])
                                 - eval_s),
        "telemetry.rollup_ms": statistics.median(traced["rollup_ms"]),
        "trace.step_ms_p50_overhead":
            traced_e2e["step_ms_p50"] - plain_e2e["step_ms_p50"],
        "trace.sim_rate_overhead_pct": 100.0 * _ratio(
            plain_e2e["sim_machine_min_per_s"]
            - traced_e2e["sim_machine_min_per_s"],
            plain_e2e["sim_machine_min_per_s"]),
    }
