"""Per-layer metrics from one traced pass.

Every ``<layer>.<op>_s`` is the summed self time of that op's spans,
except ``simulation.full_s`` and ``simulation.sampled_s``: those are
whole calls, whose only children are the ``simulation.dispatch`` spans
reported on their own.
"""

from __future__ import annotations

import statistics
from typing import Any

from repro.workloads.suite import SUITE_NAMES

from tracer import SIMULATOR_COUNTERS

#: Metric -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "workloads.load_s": "workloads.load",
    "opencl.run_s": "opencl.run",
    "driver.compile_s": "driver.compile",
    "driver.dispatch_s": "driver.dispatch",
    "gpu.execute_s": "gpu.execute",
    "gtpin.rewrite_s": "gtpin.rewrite",
    "gtpin.post_process_s": "gtpin.post_process",
    "cofluent.record_s": "cofluent.record",
    "cofluent.capture_timings_s": "cofluent.capture_timings",
    "sampling.divide_s": "sampling.divide",
    "sampling.featurize_s": "sampling.featurize",
    "sampling.project_s": "sampling.project",
    "sampling.kmeans_s": "sampling.kmeans",
    "sampling.bic_s": "sampling.bic",
    "sampling.score_s": "sampling.score",
    "simulation.dispatch_s": "simulation.dispatch",
    "parallel.cache_load_s": "parallel.cache_load",
    "parallel.cache_store_s": "parallel.cache_store",
}
#: Metric -> span name whose calls it counts.
CALL_METRICS = {
    "opencl.runs": "opencl.run",
    "driver.compiles": "driver.compile",
    "sampling.configs": "sampling.config",
}
#: Workload results measured on the untraced pass of a ``--trace 1``
#: run; a workload that does not produce one reports 0.
DETAIL_UNITS = {
    "gtpin.profile_instr_per_s": "instr/s",
    "sampling.min_error_pct": "%",
    "sampling.min_error_speedup_x": "x",
    "simulation.full_instr_per_s": "instr/s",
    "simulation.sampled_vs_full_error_pct": "%",
    "serve.cold_job_p50_ms": "ms",
    "serve.warm_job_p50_ms": "ms",
    "serve.jobs_per_s": "1/s",
}
#: Metric -> span name whose inclusive time it sums.
TOTAL_TIME_METRICS = {
    "simulation.full_s": "simulation.full",
    "simulation.sampled_s": "simulation.sampled",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Any, untraced: Any, traced: Any) -> dict[str, dict]:
    """Every per-layer metric, ``{name: {"value": v, "unit": u}}``."""
    totals = tracer.layer_totals()
    values: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIME_METRICS.items():
        values[metric] = (totals.get(span, (0.0, 0.0, 0))[0], "s")
    for metric, span in CALL_METRICS.items():
        values[metric] = (totals.get(span, (0.0, 0.0, 0))[2], "count")
    for metric, span in TOTAL_TIME_METRICS.items():
        values[metric] = (totals.get(span, (0.0, 0.0, 0))[1], "s")

    runs = sum(r for r, _ in tracer.kmeans_by_app.values())
    degenerate = sum(d for _, d in tracer.kmeans_by_app.values())
    values["sampling.kmeans_calls"] = (runs, "count")
    values["sampling.kmeans_degenerate_frac"] = (_ratio(degenerate, runs), "ratio")

    counters = {
        name: sum(c[name] for c in tracer.sim_counters.values())
        for name in SIMULATOR_COUNTERS
    }
    memo_hits = counters["memo_hits"]
    memo_all = memo_hits + counters["memo_misses"]
    epoch_hits, epoch_misses = tracer.epoch_memo
    values["simulation.stepped_instr"] = (
        counters["total_simulated_instructions"], "instr"
    )
    values["simulation.memo_hit_ratio"] = (_ratio(memo_hits, memo_all), "ratio")
    values["simulation.epoch_memo_hit_ratio"] = (
        _ratio(epoch_hits, epoch_hits + epoch_misses), "ratio"
    )
    hits, misses, simulated_s = tracer.sim_totals.get("full", (0, 0, 0.0))
    values["gpu.llc_hit_rate"] = (_ratio(hits, hits + misses), "ratio")
    values["gpu.simulated_s"] = (simulated_s, "s")

    loads, load_hits = tracer.cache_loads
    values["parallel.cache_hit_ratio"] = (_ratio(load_hits, loads), "ratio")

    values.update(_serve_metrics(tracer))
    for metric, unit in DETAIL_UNITS.items():
        values[metric] = (untraced.values.get(metric, 0.0), unit)
    # CPU times at one host speed: the two passes' wall times differ by
    # more than the tracing costs as the host's load drifts.
    values["trace.overhead_frac"] = (
        (traced.cpu_s / traced.loop_s) / (untraced.cpu_s / untraced.loop_s)
        - 1.0,
        "ratio",
    )
    for app in SUITE_NAMES:
        runs_for_app = tracer.kmeans_by_app.get(app, (0, 0))[0]
        values[f"sampling.kmeans_calls.{app}"] = (runs_for_app, "count")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def _serve_metrics(tracer: Any) -> dict[str, tuple[float, str]]:
    """Client- and server-side split of the serve round trips."""
    submits = [row for row in tracer.spans if row[0] == "serve.submit"]
    jobs = tracer.job_views
    polls = sum(1 for row in tracer.spans if row[0] == "serve.poll")
    queue_ms = [v["queue_seconds"] * 1e3 for v in jobs]
    run_ms = [v["run_seconds"] * 1e3 for v in jobs]
    wait_ms = [
        v["round_trip_ms"] - (v["queue_seconds"] + v["run_seconds"]) * 1e3
        for v in jobs
    ]

    def mid(samples: list[float]) -> float:
        return statistics.median(samples) if samples else 0.0

    return {
        "serve.submit_ms": (
            mid([(row[2] - row[1]) * 1e3 for row in submits]), "ms"
        ),
        "serve.polls_per_job": (_ratio(polls, len(jobs)), "count"),
        "serve.queue_ms": (mid(queue_ms), "ms"),
        "serve.run_ms": (mid(run_ms), "ms"),
        "serve.client_wait_ms": (mid(wait_ms), "ms"),
        "serve.client_wait_frac": (
            _ratio(sum(wait_ms), sum(v["round_trip_ms"] for v in jobs)),
            "ratio",
        ),
        "serve.rejected": (sum(1 for row in submits if row[5]), "count"),
    }
