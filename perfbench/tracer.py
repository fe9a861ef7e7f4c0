"""Out-of-program tracing: spans around the calls into each layer.

The traced run replaces each layer's public function with a wrapper, at
the place its caller looks it up (a class attribute, or the module
global a caller reads at call time), records one span per call, and puts
every original back on exit.  The untraced run therefore executes the
program's own code, unpatched.

A span is ``[name, start, end, parent, thread, failed, app]``; ``parent``
is the index of the span that was open on the same thread when the call
began, or -1, and ``failed`` says the call raised.
A layer's self time is its spans' durations minus the part of each
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Iterator, Sequence

import numpy as np

#: Layer span name -> the (module, attribute path) places it wraps.
#: ``attribute path`` is either ``function`` (a module global) or
#: ``Class.method``.  Every place is where the program's caller resolves
#: the function at call time, so the wrapper is what actually runs.
LAYER_FUNCTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "workloads.load": (
        ("repro.workloads.suite", "load_suite"),
        ("repro.workloads.suite", "load_app"),
        ("repro.serve.work", "load_app"),
    ),
    "opencl.run": (("repro.opencl.runtime", "OpenCLRuntime.run"),),
    "driver.compile": (("repro.driver.jit", "JITCompiler.compile"),),
    "driver.dispatch": (("repro.driver.driver", "GPUDriver.dispatch"),),
    "gpu.execute": (("repro.gpu.execution", "GPUDevice.execute"),),
    "gtpin.rewrite": (("repro.gtpin.rewriter", "GTPinRewriter.rewrite"),),
    "gtpin.post_process": (
        ("repro.gtpin.profiler", "GTPinSession.post_process"),
    ),
    "cofluent.record": (("repro.sampling.pipeline", "record"),),
    "cofluent.capture_timings": (
        ("repro.sampling.pipeline", "capture_timings"),
    ),
    "sampling.config": (
        ("repro.sampling.explorer", "evaluate_config"),
        ("repro.sampling.pipeline", "evaluate_config"),
    ),
    "sampling.divide": (("repro.sampling.explorer", "divide"),),
    "sampling.featurize": (
        ("repro.sampling.explorer", "build_feature_vectors"),
    ),
    "sampling.project": (("repro.sampling.simpoint", "project_features"),),
    "sampling.kmeans": (("repro.sampling.simpoint", "weighted_kmeans"),),
    "sampling.bic": (("repro.sampling.simpoint", "bic_score"),),
    "sampling.score": (
        ("repro.sampling.explorer", "selection_from_simpoint"),
        ("repro.sampling.explorer", "arrays_from_profile"),
        ("repro.sampling.explorer", "spi_error_percent"),
    ),
    "simulation.full": (("repro.simulation.sampled", "simulate_full"),),
    "simulation.sampled": (
        ("repro.simulation.sampled", "simulate_selection"),
    ),
    "simulation.dispatch": (
        ("repro.simulation.detailed", "DetailedGPUSimulator.simulate"),
        ("repro.simulation.detailed", "DetailedGPUSimulator.simulate_epoch"),
    ),
    "parallel.cache_load": (("repro.parallel.cache", "ProfileCache.load"),),
    "parallel.cache_store": (("repro.parallel.cache", "ProfileCache.store"),),
    "serve.submit": (("repro.serve.client", "ServeClient.submit"),),
    "serve.poll": (("repro.serve.client", "ServeClient.job"),),
    "serve.job": (("repro.serve.server", "execute_job"),),
}

#: Public counters read from every simulator the traced run drives.
SIMULATOR_COUNTERS = (
    "memo_hits", "memo_misses", "epoch_memo_hits", "epoch_memo_misses",
    "total_simulated_instructions",
)

#: Projected rows equal to this many decimals are one point: rows that
#: differ only by summation-order rounding cannot seed separate clusters.
DISTINCT_DECIMALS = 9


def resolve_place(module: str, path: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for one wrapped place."""
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    ``spans`` rows start ``(name, start, end, parent, ...)``.  Children
    are clipped to their parent's interval, and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(max(0.0, end - start - covered))
    return result


class NullTracer:
    """The untraced run's tracer: benchmark phases record nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **scope: Any) -> Iterator[None]:
        yield


class Tracer:
    """Records spans from the wrappers it installs; use as a context."""

    enabled = True

    def __init__(self) -> None:
        #: Rows of ``[name, start, end, parent, thread, failed, app]``.
        self.spans: list[list[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, Any]] = []
        #: app -> [k-means runs, runs whose k exceeds the distinct rows].
        self.kmeans_by_app: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.cache_loads = [0, 0]  #: [loads, hits]
        #: [hits, misses] of the batched engine's epoch memo, from the
        #: output check's batched simulation (the default engine has none).
        self.epoch_memo = [0, 0]
        #: Finished serve job views, with the client's round trip.
        self.job_views: list[dict[str, Any]] = []
        #: Latest public counters of each simulator seen, by serial;
        #: simulators themselves are not kept alive.
        self.sim_counters: dict[int, dict[str, int]] = {}
        self._sim_serials: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        #: "full"/"sampled" -> [hits, misses, simulated seconds].
        self.sim_totals: dict[str, list[float]] = defaultdict(
            lambda: [0, 0, 0.0]
        )
        #: (sim kind, app) -> [hits, misses], for the LLC digest.
        self.llc_by_app: dict[tuple[str, str], list[int]] = defaultdict(
            lambda: [0, 0]
        )

    # -- spans ---------------------------------------------------------------

    def _scope(self) -> dict[str, Any]:
        scope = getattr(self._local, "scope", None)
        if scope is None:
            scope = self._local.scope = {
                "stack": [], "app": "", "sim": "", "points": None, "distinct": 0,
            }
        return scope

    def _open(self, name: str, scope: dict[str, Any]) -> tuple[list, dict]:
        local = self._scope()
        saved = {key: local[key] for key in scope}
        local.update(scope)
        stack = local["stack"]
        row = [name, 0.0, 0.0, stack[-1] if stack else -1,
               threading.get_ident(), False, local["app"]]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(row)
        row[1] = time.perf_counter()
        return row, saved

    def _close(self, row: list, saved: dict[str, Any]) -> None:
        row[2] = time.perf_counter()
        local = self._local.scope
        local["stack"].pop()
        local.update(saved)

    @contextlib.contextmanager
    def span(self, name: str, **scope: Any) -> Iterator[None]:
        """One span; ``scope`` keys (``app``, ``sim``) hold for its calls."""
        row, saved = self._open(name, scope)
        try:
            yield
        except BaseException:
            row[5] = True
            raise
        finally:
            self._close(row, saved)

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, places in LAYER_FUNCTIONS.items():
            for module, path in places:
                owner, attr = resolve_place(module, path)
                self._patch(owner, attr, name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        observe = self._observers().get(name)
        scope_of = _SCOPES.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            row, saved = tracer._open(
                name, scope_of(args, kwargs) if scope_of else {}
            )
            try:
                result = original(*args, **kwargs)
            except BaseException:
                row[5] = True
                raise
            finally:
                tracer._close(row, saved)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, traced))
        setattr(owner, attr, traced)

    # -- observers: counts read where the work happens -----------------------

    def _observers(self) -> dict[str, Callable[..., None]]:
        return {
            "sampling.kmeans": self._observe_kmeans,
            "parallel.cache_load": self._observe_cache_load,
            "simulation.dispatch": self._observe_dispatch,
        }

    def _observe_kmeans(self, args: tuple, kwargs: dict, result: Any) -> None:
        points, _weights, k, options = _bind(
            args, kwargs, ("points", "weights", "k", "options")
        )
        local = self._scope()
        # run_simpoint passes one points array for every k: count it once.
        if local["points"] is not points:
            local["points"] = points
            local["distinct"] = len(
                np.unique(np.round(points, DISTINCT_DECIMALS), axis=0)
            )
        distinct = local["distinct"]
        with self._lock:
            counts = self.kmeans_by_app[local["app"]]
            counts[0] += options.restarts
            if k > distinct:
                counts[1] += options.restarts

    def _observe_cache_load(self, args: tuple, kwargs: dict, result: Any) -> None:
        with self._lock:
            self.cache_loads[0] += 1
            self.cache_loads[1] += result is not None

    def _observe_dispatch(self, args: tuple, kwargs: dict, result: Any) -> None:
        local = self._scope()
        if len(local["stack"]) and self.spans[local["stack"][-1]][0] == (
            "simulation.dispatch"
        ):
            return  # simulate() inside simulate_epoch: counted by the epoch
        kind = local["sim"] or "other"
        results = result if isinstance(result, list) else [result]
        simulator = args[0]
        with self._lock:
            serial = self._sim_serials.setdefault(
                simulator, len(self.sim_counters)
            )
            self.sim_counters[serial] = {
                name: getattr(simulator, name) for name in SIMULATOR_COUNTERS
            }
            totals = self.sim_totals[kind]
            llc = self.llc_by_app[(kind, local["app"])]
            for dispatch in results:
                totals[0] += dispatch.cache.hits
                totals[1] += dispatch.cache.misses
                totals[2] += dispatch.seconds
                llc[0] += dispatch.cache.hits
                llc[1] += dispatch.cache.misses

    def patched_places(self) -> list[tuple[Any, str]]:
        """Places that currently hold one of this tracer's wrappers."""
        return [
            (owner, attr)
            for owner, attr, _, traced in self._patches
            if owner.__dict__.get(attr) is traced
        ]

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (self seconds, inclusive seconds, calls)."""
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        own = self_times(self.spans)
        for row, self_s in zip(self.spans, own):
            entry = totals[row[0]]
            entry[0] += self_s
            entry[1] += row[2] - row[1]
            entry[2] += 1
        return {name: (s, t, int(n)) for name, (s, t, n) in totals.items()}


def _bind(args: tuple, kwargs: dict, names: Sequence[str]) -> list[Any]:
    """Positional-or-keyword arguments of a wrapped call, by name."""
    return [
        args[i] if i < len(args) else kwargs[name]
        for i, name in enumerate(names)
    ]


def _sim_scope(kind: str) -> Callable[[tuple, dict], dict[str, str]]:
    return lambda args, kwargs: {"sim": kind}


#: Span name -> scope a wrapped call opens for the calls it makes.
_SCOPES: dict[str, Callable[[tuple, dict], dict[str, str]]] = {
    "simulation.full": _sim_scope("full"),
    "simulation.sampled": _sim_scope("sampled"),
    "serve.job": lambda args, kwargs: {
        "app": _bind(args, kwargs, ("spec",))[0].app
    },
}
