"""Run one benchmark workload for one seed and print its metrics.

Usage, from the root of a checkout of this repository::

    python3 perfbench/run.py --workload explore-suite --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` times the untraced program and prints the end-to-end
metrics; ``--trace 1`` times one untraced and one traced pass and prints
the per-layer metrics, writing the spans to ``.bench_out/``.  Every run
checks the outputs first and publishes no metrics if a check fails.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--write-expected`` records the default seed's output digests in
``perfbench/expected.json`` (after an intended change of outputs).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import resource
import statistics
import sys
import time

#: Environment that changes what the program does, unset for every run:
#: a leaked ``REPRO_PROFILE_CACHE`` turns profiling into cache reads, a
#: leaked ``REPRO_JOBS`` turns the serial sweep into a pool run.
PINNED_UNSET = (
    "REPRO_JOBS", "REPRO_PROFILE_CACHE", "REPRO_PROFILE_CACHE_MAX_MB",
    "REPRO_PROFILE_CACHE_MAX_AGE", "REPRO_FAULTS", "REPRO_LEDGER",
    "REPRO_LIVE_PORT", "REPRO_LIVE_INTERVAL", "REPRO_BENCH_SCALE",
    "REPRO_EVENTS_CAP", "REPRO_PARALLEL_WORKER",
)
#: One BLAS thread: the host has few cores and the arrays are small.
PINNED_SET = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
HERE = pathlib.Path(__file__).resolve().parent
#: CPU seconds of one ``workloads.calibration_loop`` on the reference
#: host, a 2-vCPU VM on an Intel Xeon at 2.1 GHz (median of 200 loops).
CALIBRATION_REF_S = 0.020
#: Calibration loops run before, and again after, each timed set-up.
SETUP_CALIBRATION_LOOPS = 4
EXPECTED = HERE / "expected.json"

#: End-to-end metrics (``--trace 0``), the same on every workload.
#: Both times are process CPU seconds (every thread), which leave out
#: the time the hypervisor gives the VM's CPUs to other guests, scaled
#: to the reference host's speed by calibration loops run around the
#: set-up or between the units of work of a pass: ``cpu *
#: CALIBRATION_REF_S / loop_s``.  On a shared 2-vCPU VM the middle half
#: of ten runs' pass wall times spread 26-32% of their median, and the
#: CPU time of one explore-suite pass ranged 15.3-22.0 s over five runs
#: while its scaled time ranged 24.8-26.7 s.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def pin_cpu() -> int | None:
    """Run the whole process on the CPU it runs on now; returns it.

    For a workload with several threads (serve workers, HTTP handlers,
    clients): they share the GIL, so a second CPU adds no throughput,
    it only turns each GIL hand-off into a cross-CPU wake-up.  Unpinned,
    a serve pass on a 2-vCPU VM made 80k-120k voluntary context switches
    and was idle for 7-40% of its wall time, as the host's load varied;
    pinned, it made about 4k and was idle for 3-7%.  The CPU is the one
    the scheduler chose, not a fixed one, so two runs started side by
    side do not share one CPU while the other idles.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
    except (AttributeError, OSError):
        cpu = -1
    if cpu not in os.sched_getaffinity(0):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def pin_environment() -> dict[str, str | None]:
    """Apply the pinned environment; returns what each name was before."""
    before: dict[str, str | None] = {}
    for name in PINNED_UNSET:
        before[name] = os.environ.pop(name, None)
    for name, value in PINNED_SET.items():
        before[name] = os.environ.get(name)
        os.environ[name] = value
    return before


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    before = pin_environment()
    overridden = {k: v for k, v in before.items() if v is not None}
    print(f"environment pinned; values replaced: {overridden or 'none'}",
          file=sys.stderr)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_out"
    workdir.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)

    import tracer as tracing
    from workloads import DEFAULT_SEED, WORKLOADS, llc_digest, loop_seconds

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    cpu = pin_cpu() if workload.threaded else None
    print(f"pinned to cpu {cpu}", file=sys.stderr)

    # Every pass gets freshly generated apps, so no pass reuses what an
    # earlier one left cached on them: each is as cold as a user's run.
    setup_times: list[float] = []

    def setup() -> object:
        before = loop_seconds(SETUP_CALIBRATION_LOOPS)
        start = time.process_time()
        state = workload.setup(workdir)
        cpu = time.process_time() - start
        loop_s = (before + loop_seconds(SETUP_CALIBRATION_LOOPS)) / 2
        setup_times.append(cpu * CALIBRATION_REF_S / loop_s)
        return state

    # The pass count follows from --seconds and the workload's nominal
    # pass time, not from the clock: a slow host gets the same work.
    null = tracing.NullTracer()
    passes = []
    n_passes = 1 if args.trace else max(
        1, int(args.seconds // workload.pass_seconds)
    )
    while len(passes) < n_passes:
        state = setup()
        try:
            passes.append(workload.run_pass(state, args.seed, null))
        finally:
            workload.teardown(state)
        last = passes[-1]
        print(f"pass {len(passes)}: {last.wall_s:.3f} s wall, "
              f"{last.cpu_s:.3f} s cpu, {last.loop_s * 1e3:.2f} ms loop",
              file=sys.stderr)
    while len(setup_times) < workload.setup_repeats:
        workload.teardown(setup())
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            with tracer.span("bench.setup"):
                state = workload.setup(workdir)
            try:
                with tracer.span("bench.pass"):
                    traced = workload.run_pass(state, args.seed, tracer)
            finally:
                workload.teardown(state)
        print(f"traced pass: {traced.wall_s:.3f} s", file=sys.stderr)
        if tracer.patched_places():
            raise RuntimeError("tracer left wrappers installed")

    problems = [problem for p in passes for problem in p.problems]
    checked = passes + ([traced] if tracer else [])
    for key in checked[0].digests:
        if len({p.digests[key] for p in checked}) != 1:
            problems.append(f"{key} digest differs between passes")
    problems += workload.check(checked, args.seed, tracer)
    digests = dict(checked[0].digests)
    if tracer is not None and args.workload == "profile-simulate":
        digests["llc"] = llc_digest(tracer)
    if args.seed == DEFAULT_SEED:
        problems += compare_expected(
            args.workload, digests, args.write_expected
        )

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    if problems:
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "cpu_ref_s": statistics.median(
                [p.cpu_s * CALIBRATION_REF_S / p.loop_s for p in passes]
            ),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        from layers import layer_metrics

        metrics = layer_metrics(tracer, passes[0], traced)
        write_trace(workdir, args, tracer, metrics, before, cpu)

    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def compare_expected(
    workload: str, digests: dict[str, str], write: bool
) -> list[str]:
    """Default-seed digests against ``expected.json`` (or record them)."""
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected = stored.setdefault(workload, {})
    if write:
        expected.update(digests)
        EXPECTED.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        return []
    return [
        f"{workload} {key} digest {value[:12]} != expected "
        f"{expected.get(key, 'none')[:12]}"
        for key, value in digests.items()
        if expected.get(key) != value
    ]


def write_trace(
    workdir: pathlib.Path,
    args: argparse.Namespace,
    tracer,
    metrics: dict,
    before: dict[str, str | None],
    cpu: int | None,
) -> None:
    path = workdir / f"trace-{args.workload}-seed{args.seed}.json"
    totals = tracer.layer_totals()
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "environment_before_pinning": before,
        "pinned_cpu": cpu,
        "metrics": metrics,
        "layers": {
            name: {"self_s": s, "total_s": t, "calls": n}
            for name, (s, t, n) in sorted(totals.items())
        },
        "kmeans_by_app": {
            app: {"runs": runs, "degenerate": degenerate}
            for app, (runs, degenerate) in sorted(tracer.kmeans_by_app.items())
        },
        "span_fields": ["name", "start", "end", "parent", "thread",
                        "failed", "app"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload))
    print(f"trace written to {path.relative_to(pathlib.Path.cwd())}")


if __name__ == "__main__":
    sys.exit(main())
