"""The benchmark's three workloads.

Each workload has a ``setup`` (timed as ``setup_s``), a ``run_pass`` that
does one timed pass of the workflow over the seed's inputs on what
``setup`` made, a ``teardown`` that releases it, and a ``check`` of the
passes' outputs.  Besides its wall time, a pass
reports the workload's own results by metric name; a ``--trace 1`` run
prints them with the per-layer metrics.  The program
is always called through the module attribute its own callers use
(``pipeline.profile_workload``, ``sampled.simulate_full``, ...), so the
traced run's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import shutil
import statistics
import tempfile
import threading
import time
from typing import Any

import numpy as np

from repro.gpu.device import HD4000
from repro.parallel import cache as profile_cache
from repro.sampling import pipeline
from repro.sampling.simpoint import SimPointOptions
from repro.serve import client as serve_client
from repro.serve import server as serve_server
from repro.simulation import detailed, sampled
from repro.workloads import suite

import tracer as tracing

#: The seed whose selections and simulated statistics are digested in
#: ``expected.json``; every other seed gets the structural checks only.
DEFAULT_SEED = 0


@dataclasses.dataclass
class PassResult:
    wall_s: float
    cpu_s: float  #: process CPU time, every thread of the process
    loop_s: float  #: mean CPU time of one calibration loop in the pass
    attempted: int
    failed: int
    values: dict[str, float]  #: per-layer metric name -> value
    digests: dict[str, str]  #: output digests, equal on every pass
    problems: list[str]  #: structural check failures


def calibration_loop() -> int:
    """A fixed interpreter and NumPy load that calls none of the program.

    Its CPU time says how fast the host runs code at that moment.
    """
    counts: dict[int, int] = {}
    digits = 0
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        digits += len(str(i))
    values = np.arange(4096, dtype=np.float64)
    for _ in range(300):
        values = np.sort(values[::-1] * 1.0001)
    return digits + int(values[0])


def loop_seconds(loops: int) -> float:
    """Mean CPU time of ``loops`` calibration loops, run now.

    Thread CPU time: the loops may run beside the serve daemon's
    threads, whose work (and waits for the GIL) it leaves out.
    """
    start = time.thread_time()
    for _ in range(loops):
        calibration_loop()
    return (time.thread_time() - start) / loops


class PassClock:
    """Times one pass, and the calibration loops run between its units.

    On a shared 2-vCPU VM the CPU time of the same pass moved by up to
    25% between passes a few seconds apart, and the calibration loop's
    with it.  The loops' CPU time is kept out of the pass's; the wall
    time includes them.  ``calibrate`` may be called from any thread.
    """

    loops_per_call = 2

    def __init__(self) -> None:
        self.loops = 0
        self.loop_cpu = 0.0
        self.lock = threading.Lock()
        self.start, self.cpu_start = time.perf_counter(), time.process_time()

    def calibrate(self) -> None:
        loop_cpu = loop_seconds(self.loops_per_call) * self.loops_per_call
        with self.lock:
            self.loop_cpu += loop_cpu
            self.loops += self.loops_per_call

    def result(self, **fields: Any) -> PassResult:
        """The pass's result; call once its work is done."""
        self.calibrate()
        return PassResult(
            wall_s=time.perf_counter() - self.start,
            cpu_s=time.process_time() - self.cpu_start - self.loop_cpu,
            loop_s=self.loop_cpu / self.loops,
            **fields,
        )


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Workload:
    """What every workload gives the runner; state is ``setup``'s."""

    name: str
    #: Nominal pass time on a 2-vCPU host; sets the passes per run.
    pass_seconds: float
    #: Set-ups timed per run (one per pass, the rest released at once);
    #: ``setup_s`` is their median.
    setup_repeats = 3
    #: Runs several threads: pinned to one CPU (see ``run.pin_cpu``).
    threaded = False

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` started (after its pass, if any)."""

    def check(self, passes: list[PassResult], seed: int, tracer: Any) -> list[str]:
        """Output checks beyond each pass's own; problems found."""
        return []


# -- explore-suite -----------------------------------------------------------


class ExploreSuite(Workload):
    """Profile, then score all 30 configurations, on every suite app."""

    name = "explore-suite"
    scale = 0.1
    pass_seconds = 20.0
    #: The harness's Figures 5-7 settings (``benchmarks/conftest.py``).
    options = SimPointOptions(max_k=10, restarts=2, max_iterations=60)

    def setup(self, workdir: pathlib.Path) -> Any:
        return suite.load_suite(scale=self.scale)

    def run_pass(self, apps: Any, seed: int, tracer: Any) -> PassResult:
        attempted = failed = profiled = 0
        profile_s = 0.0
        errors, speedups, lines, problems = [], [], [], []
        clock = PassClock()
        for app in apps:
            clock.calibrate()
            attempted += len(pipeline.ALL_CONFIGS)
            with tracer.span("bench.app", app=app.name):
                try:
                    t0 = time.perf_counter()
                    workload = pipeline.profile_workload(app, HD4000, seed)
                    profile_s += time.perf_counter() - t0
                    result = pipeline.explore_application(
                        workload, options=self.options, jobs=1
                    )
                except Exception as exc:  # counted, then reported
                    failed += len(pipeline.ALL_CONFIGS)
                    problems.append(f"{app.name}: {type(exc).__name__}: {exc}")
                    continue
            profiled += workload.log.total_instructions
            failed += len(result.errors)
            best = result.minimize_error()
            errors.append(best.error_percent)
            speedups.append(best.simulation_speedup)
            lines.extend(_selection_lines(app.name, result))
            problems.extend(_exploration_problems(app.name, result))
        return clock.result(
            attempted=attempted,
            failed=failed,
            values={
                "gtpin.profile_instr_per_s": profiled / profile_s,
                "sampling.min_error_pct": float(np.mean(errors)),
                "sampling.min_error_speedup_x": float(np.mean(speedups)),
            },
            digests={"selections": _digest(lines)},
            problems=problems,
        )


def _selection_lines(app: str, result: Any) -> list[str]:
    lines = []
    for config, outcome in result.results.items():
        selection = outcome.selection
        reps = ",".join(
            f"{c.interval.start}-{c.interval.stop}" for c in selection.selected
        )
        ratios = ",".join(repr(c.ratio) for c in selection.selected)
        lines.append(
            f"{app}|{config.label}|{selection.k}|{reps}|{ratios}|"
            f"{outcome.error_percent!r}"
        )
    return sorted(lines)


def _exploration_problems(app: str, result: Any) -> list[str]:
    problems = []
    scored = len(result.results) + len(result.errors)
    if scored != len(pipeline.ALL_CONFIGS):
        problems.append(f"{app}: {scored} configs, expected 30")
    for config, outcome in result.results.items():
        total = sum(c.ratio for c in outcome.selection.selected)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{app} {config.label}: ratios sum to {total!r}")
    return problems


# -- profile-simulate --------------------------------------------------------


class ProfileSimulate(Workload):
    """Profile, select (SYNC/BB), simulate the selection and the program."""

    name = "profile-simulate"
    scale = 0.25
    pass_seconds = 9.0
    #: Engine-identity slice: this app's first invocations, both engines.
    slice_app = "cb-gaussian-buffer"
    slice_invocations = 6

    def setup(self, workdir: pathlib.Path) -> Any:
        return suite.load_suite(scale=self.scale)

    def run_pass(self, apps: Any, seed: int, tracer: Any) -> PassResult:
        attempted = failed = 0
        profile_s = full_s = 0.0
        profiled = full_instr = 0
        errors, lines, problems = [], [], []
        clock = PassClock()
        for app in apps:
            clock.calibrate()
            attempted += 1
            with tracer.span("bench.app", app=app.name):
                try:
                    t0 = time.perf_counter()
                    workload = pipeline.profile_workload(app, HD4000, seed)
                    t1 = time.perf_counter()
                    chosen = pipeline.select_simpoints(workload)
                    part = sampled.simulate_selection(
                        app.name, app.sources, workload.log,
                        chosen.selection, HD4000, seed=seed,
                    )
                    t2 = time.perf_counter()
                    full = sampled.simulate_full(
                        app.name, app.sources, workload.log, HD4000,
                        seed=seed,
                    )
                    t3 = time.perf_counter()
                    error = sampled.sampled_vs_full_error_percent(part, full)
                except Exception as exc:  # counted, then reported
                    failed += 1
                    problems.append(f"{app.name}: {type(exc).__name__}: {exc}")
                    continue
            profile_s += t1 - t0
            full_s += t3 - t2
            profiled += workload.log.total_instructions
            full_instr += full.simulated_instructions
            errors.append(error)
            if full.simulated_instructions != workload.log.total_instructions:
                problems.append(
                    f"{app.name}: full simulation stepped "
                    f"{full.simulated_instructions} of "
                    f"{workload.log.total_instructions} instructions"
                )
            lines.append(
                f"{app.name}|{chosen.config.label}|{chosen.selection.k}|"
                f"{full.simulated_instructions}|{full.measured_spi!r}|"
                f"{part.simulated_instructions}|{part.projected_spi!r}"
            )
        return clock.result(
            attempted=attempted,
            failed=failed,
            values={
                "gtpin.profile_instr_per_s": profiled / profile_s,
                "simulation.full_instr_per_s": full_instr / full_s,
                "simulation.sampled_vs_full_error_pct": float(np.mean(errors)),
            },
            digests={"simulation": _digest(lines)},
            problems=problems,
        )

    def check(self, passes: list[PassResult], seed: int, tracer: Any) -> list[str]:
        """The default engine equals the reference engine on a short slice
        of one app, and the batched engine on the whole app."""
        app = suite.load_app(self.slice_app, scale=self.scale)
        workload = pipeline.profile_workload(app, HD4000, seed)
        picked = workload.log.invocations[: self.slice_invocations]
        outcomes = []
        for engine in ({}, {"engine": "reference"}):
            simulator = detailed.DetailedGPUSimulator(HD4000, **engine)
            rng = np.random.default_rng(seed)
            outcomes.append([
                simulator.simulate(
                    app.sources[p.kernel_name].body,
                    {**dict(p.data_items), **dict(p.arg_items)},
                    p.global_work_size,
                    rng,
                )
                for p in picked
            ])
        problems = []
        if outcomes[0] != outcomes[1]:
            problems.append(
                f"default engine differs from the reference engine on "
                f"{self.slice_app}[:{self.slice_invocations}]"
            )
        default = sampled.simulate_full(
            app.name, app.sources, workload.log, HD4000, seed=seed
        )
        # The default engine never reaches the epoch memo; this batched
        # run is where the traced run reads it.
        with tracing.Tracer() as batched_tracer:
            batched = sampled.simulate_full(
                app.name, app.sources, workload.log, HD4000, seed=seed,
                engine="batched",
            )
        full = [(r.measured_spi, r.simulated_instructions)
                for r in (default, batched)]
        if full[0] != full[1]:
            problems.append(
                f"default engine differs from the batched engine on "
                f"{self.slice_app}: {full[0]} != {full[1]}"
            )
        if tracer is not None:
            tracer.epoch_memo = [
                sum(c[name] for c in batched_tracer.sim_counters.values())
                for name in ("epoch_memo_hits", "epoch_memo_misses")
            ]
        return problems


def llc_digest(tracer: Any) -> str:
    """Digest of each app's simulated LLC hits and misses (traced run)."""
    return _digest(sorted(
        f"{kind}|{app}|{hits}|{misses}"
        for (kind, app), (hits, misses) in tracer.llc_by_app.items()
    ))


# -- serve-cold-warm ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Spec:
    kind: str
    app: str
    seed: int


@dataclasses.dataclass
class DaemonState:
    """A started daemon and the profile cache directory it owns."""

    daemon: Any
    cache_root: str


class ServeColdWarm(Workload):
    """An in-process daemon driven by two closed-loop clients.

    The cold phase submits unique (app, trial seed) specs, so every job
    profiles and stores a cache entry; the warm phase replays them, so
    every job reads one.
    """

    name = "serve-cold-warm"
    #: Large enough that a warm job runs several 0.15 s client polls on
    #: the server, so the round trip follows the daemon's work.
    scale = 0.4
    apps = (
        "cb-graphics-t-rex", "cb-vision-tv-l1-of",
        "cb-vision-facedetect-mobile", "sonyvegas-proj-r3",
        "cb-physics-ocean-surf",
    )
    #: Kinds of one phase's jobs: every app runs twice, and the seed
    #: deals these kinds to the app slots and orders the jobs.  A fixed
    #: mix keeps the work of a pass the same for every seed.
    kinds = ("profile",) * 4 + ("select",) * 4 + ("simulate",) * 2
    workers = 2
    clients = 2
    threaded = True
    #: Four passes in a 30 s run: a pass's time varies more than the
    #: single-threaded workloads' (how the jobs overlap), so its median
    #: needs more of them.
    pass_seconds = 7.5
    #: A daemon starts in about 1.3 ms: the median of 3 starts ranged
    #: 1.2-3.2 ms between runs, the median of 9 starts 1.2-1.5 ms.
    setup_repeats = 9

    def setup(self, workdir: pathlib.Path) -> DaemonState:
        root = tempfile.mkdtemp(prefix="profile-cache-", dir=workdir)
        daemon = serve_server.ServeDaemon(
            workers=self.workers, cache=profile_cache.ProfileCache(root)
        )
        daemon.start()
        return DaemonState(daemon, root)

    def teardown(self, state: DaemonState) -> None:
        state.daemon.stop()
        shutil.rmtree(state.cache_root, ignore_errors=True)

    def specs(self, seed: int) -> list[Spec]:
        rng = np.random.default_rng(seed)
        slots = [app for app in self.apps for _ in range(2)]
        kinds = rng.permutation(self.kinds)
        order = rng.permutation(len(slots))
        return [
            Spec(kind=str(kinds[i]), app=slots[i], seed=len(slots) * seed + n)
            for n, i in enumerate(order)
        ]

    def run_pass(self, state: DaemonState, seed: int, tracer: Any) -> PassResult:
        specs = self.specs(seed)
        port = state.daemon.port
        clock = PassClock()
        cold = self._phase(port, specs, tracer, "cold", clock)
        warm = self._phase(port, specs, tracer, "warm", clock)
        views = cold + warm
        done = [v for v in views if v is not None and v["state"] == "done"]
        problems = [
            f"job {spec} ended {view and view.get('state')}: "
            f"{view and view.get('error')}"
            for spec, view in zip(specs + specs, views)
            if view is None or view["state"] != "done"
        ]
        for spec, c, w in zip(specs, cold, warm):
            if c and w and _outcome(c) != _outcome(w):
                problems.append(f"{spec}: warm result differs from cold")
        result = clock.result(
            attempted=len(views),
            failed=len(views) - len(done),
            values={},
            digests={},
            problems=problems,
        )
        values = result.values
        values["serve.jobs_per_s"] = len(done) / result.wall_s
        # Every cold job profiles; profile-only jobs do nothing else.
        profiles = [v for v in cold if v and v["state"] == "done"
                    and v["spec"]["kind"] == "profile"]
        values["gtpin.profile_instr_per_s"] = (
            sum(v["result"]["total_instructions"] for v in profiles)
            / sum(v["run_seconds"] for v in profiles)
        )
        for phase, phase_views in (("cold", cold), ("warm", warm)):
            times = [v["round_trip_ms"] for v in phase_views
                     if v and v["state"] == "done"]
            if times:
                values[f"serve.{phase}_job_p50_ms"] = statistics.median(times)
        self._last = (specs, cold)
        return result

    def _phase(
        self,
        port: int,
        specs: list[Spec],
        tracer: Any,
        phase: str,
        clock: PassClock,
    ) -> list[dict[str, Any] | None]:
        views: list[dict[str, Any] | None] = [None] * len(specs)

        def client(index: int) -> None:
            connection = serve_client.ServeClient(port, timeout=60.0)
            for i in range(index, len(specs), self.clients):
                spec = specs[i]
                # Between jobs, while the other client's job runs.
                clock.calibrate()
                started = time.perf_counter()
                try:
                    with tracer.span("bench.job", app=spec.app):
                        view = connection.run(
                            spec.kind, spec.app, scale=self.scale,
                            seed=spec.seed, client=f"client-{index}",
                        )
                except Exception as exc:  # counted as a failed job
                    views[i] = {"state": "error", "error": repr(exc)}
                    continue
                view["round_trip_ms"] = (time.perf_counter() - started) * 1e3
                views[i] = view
                if tracer.enabled:
                    tracer.job_views.append(view)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"{phase} phase clients did not finish")
        return views

    def check(self, passes: list[PassResult], seed: int, tracer: Any) -> list[str]:
        """Every job result equals the in-process pipeline's output."""
        state_specs, cold = self._last
        apps: dict[str, Any] = {}
        problems = []
        for spec, view in zip(state_specs, cold):
            if view is None or "result" not in view:
                continue
            if spec.app not in apps:
                apps[spec.app] = suite.load_app(spec.app, scale=self.scale)
            expected = self.reference(apps[spec.app], spec)
            got = {key: view["result"].get(key) for key in expected}
            if got != expected:
                problems.append(f"{spec}: served {got} != in-process {expected}")
        return problems

    def reference(self, app: Any, spec: Spec) -> dict[str, Any]:
        """The fields of a job result, computed in-process without a cache."""
        workload = pipeline.profile_workload(app, HD4000, spec.seed)
        result: dict[str, Any] = {
            "invocations": len(workload.log.invocations),
            "total_instructions": int(workload.log.total_instructions),
        }
        if spec.kind == "profile":
            return result
        chosen = pipeline.select_simpoints(workload)
        result.update({
            "config": chosen.config.label,
            "error_percent": chosen.error_percent,
            "selection_fraction": chosen.selection_fraction,
            "simulation_speedup": chosen.simulation_speedup,
            "k": chosen.selection.k,
        })
        if spec.kind == "simulate":
            part = sampled.simulate_selection(
                spec.app, app.sources, workload.log, chosen.selection,
                HD4000, seed=spec.seed,
            )
            result["projected_spi"] = part.projected_spi
            result["simulated_instructions"] = int(part.simulated_instructions)
        return result


def _outcome(view: dict[str, Any]) -> dict[str, Any]:
    """A job result without its host timing."""
    result = dict(view.get("result", {}))
    result.pop("simulation_wall_seconds", None)
    return result


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (ExploreSuite, ProfileSimulate, ServeColdWarm)
}
