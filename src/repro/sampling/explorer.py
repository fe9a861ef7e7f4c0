"""The 30-configuration exploration and its two optimization policies.

Section V-B evaluates every (interval scheme x feature kind) combination
-- 3 x 10 = 30 configs -- per application.  The key observation enabling
Sections V-C/V-D: **one native profiling run suffices to score all 30
configs**, because every config is post-processing over the same
GT-Pin invocation log ("there is almost no additional overhead ... we
need to profile each application just once").

Two policies consume the exploration results:

* :func:`ExplorationResult.minimize_error` -- Section V-C / Figure 6: the
  per-application config with the smallest Eq. (1) error;
* :func:`ExplorationResult.co_optimize` -- Section V-D / Figure 7: the
  smallest-selection config whose error is below a threshold, falling
  back to the error-minimizing config when none qualifies.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import faults, telemetry
from repro.cofluent.timing import TimingTrace
from repro.faults.errors import SweepTaskFault
from repro.faults.health import ProfileHealth
from repro.faults.retry import retry_transient
from repro.gtpin.tools.invocations import InvocationLog
from repro.parallel.pool import parallel_map, resolve_jobs
from repro.sampling.error import arrays_from_profile, spi_error_percent
from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    build_feature_vectors,
)
from repro.sampling.intervals import (
    DEFAULT_APPROX_SIZE,
    IntervalScheme,
    divide,
)
from repro.sampling.selection import (
    Selection,
    SelectionConfig,
    selection_from_simpoint,
)
from repro.sampling.simpoint import SimPointOptions, run_simpoint

#: All 30 configurations, interval-major (Figure 5's x-axis order).
ALL_CONFIGS: tuple[SelectionConfig, ...] = tuple(
    SelectionConfig(scheme, feature)
    for scheme in (
        IntervalScheme.SYNC,
        IntervalScheme.APPROX_100M,
        IntervalScheme.SINGLE_KERNEL,
    )
    for feature in ALL_FEATURE_KINDS
)


@dataclasses.dataclass(frozen=True)
class ConfigResult:
    """Outcome of one configuration on one application."""

    selection: Selection
    error_percent: float

    @property
    def config(self) -> SelectionConfig:
        return self.selection.config

    @property
    def selection_fraction(self) -> float:
        return self.selection.selection_fraction

    @property
    def simulation_speedup(self) -> float:
        return self.selection.simulation_speedup


class ExplorationError(RuntimeError):
    """Raised when *every* configuration of an exploration failed."""


@dataclasses.dataclass(frozen=True)
class ExplorationResult:
    """All configuration outcomes for one application.

    ``errors`` maps any configuration whose evaluation raised to a
    one-line description; a failed config never kills the sweep, it is
    just absent from ``results``.
    """

    application_name: str
    results: Mapping[SelectionConfig, ConfigResult]
    total_instructions: int
    errors: Mapping[SelectionConfig, str] = dataclasses.field(
        default_factory=dict
    )
    #: The underlying workload's fault-degradation record, when the
    #: exploration ran over a flagged partial profile.
    health: ProfileHealth | None = None

    def __getitem__(self, config: SelectionConfig) -> ConfigResult:
        return self.results[config]

    def minimize_error(self) -> ConfigResult:
        """Section V-C: the error-minimizing configuration.

        Ties break toward the smaller selection (cheaper to simulate).
        """
        return min(
            self.results.values(),
            key=lambda r: (r.error_percent, r.selection_fraction),
        )

    def co_optimize(self, error_threshold_percent: float) -> ConfigResult:
        """Section V-D: smallest selection with error below the threshold.

        "If no configuration has an error below the specified threshold,
        we choose the configuration with the smallest error, regardless
        of selection size."
        """
        eligible = [
            r
            for r in self.results.values()
            if r.error_percent <= error_threshold_percent
        ]
        if not eligible:
            return self.minimize_error()
        return min(eligible, key=lambda r: r.selection_fraction)


def evaluate_config(
    config: SelectionConfig,
    log: InvocationLog,
    timings: TimingTrace,
    approx_size: int = DEFAULT_APPROX_SIZE,
    options: SimPointOptions | None = None,
    weighted_features: bool = True,
    application_name: str = "",
) -> ConfigResult:
    """Divide, featurize, cluster, select, and score one configuration.

    The ``sampling.config`` fault site models a sweep task dying on a
    transient (worker OOM, spurious signal): the gate retries with
    backoff, and on exhaustion the raised :class:`SweepTaskFault`
    propagates to :func:`explore`, which records the config under
    ``ExplorationResult.errors`` instead of killing the sweep.
    """
    fi = faults.get()
    if fi.enabled:
        def _gate() -> None:
            if fi.draw("sampling.config") is not None:
                raise SweepTaskFault(
                    f"transient sweep-task failure for config {config.label}"
                )

        retry_transient(_gate, site="sampling.config")
    tm = telemetry.get()
    with tm.span(
        "select.config", category="sampling", config=config.label
    ) as span:
        with tm.span("select.divide", category="sampling"):
            intervals = divide(log, config.scheme, approx_size)
        if tm.enabled:
            tm.histogram(
                "sampling.interval_instructions", "instructions"
            ).observe_array(
                np.array([iv.instruction_count for iv in intervals])
            )
        with tm.span("select.featurize", category="sampling"):
            matrix = build_feature_vectors(
                log, intervals, config.feature, weighted=weighted_features
            )
        weights = [iv.instruction_count for iv in intervals]
        with tm.span(
            "select.cluster", category="sampling", intervals=len(intervals)
        ):
            result = run_simpoint(matrix, weights, options)
        with tm.span("select.score", category="sampling"):
            selection = selection_from_simpoint(
                config, intervals, result, log.total_instructions
            )
            seconds, instructions = arrays_from_profile(log, timings)
            error = spi_error_percent(
                selection, seconds, instructions, workload=application_name
            )
        span.annotate(k=selection.k, error_percent=round(error, 4))
    if tm.enabled:
        tm.observe_hist(
            "sampling.config_seconds", span.duration_seconds, "s"
        )
    tm.inc("sampling.configs_evaluated")
    return ConfigResult(selection=selection, error_percent=error)


def explore(
    application_name: str,
    log: InvocationLog,
    timings: TimingTrace,
    configs: Sequence[SelectionConfig] = ALL_CONFIGS,
    approx_size: int = DEFAULT_APPROX_SIZE,
    options: SimPointOptions | None = None,
    weighted_features: bool = True,
    jobs: int | None = None,
    health: ProfileHealth | None = None,
) -> ExplorationResult:
    """Score every configuration from one profile + one timing trace.

    Every configuration is independent post-processing over the same
    immutable profile, so with ``jobs > 1`` (or ``REPRO_JOBS``) the
    evaluations fan out across a process pool -- results are
    bit-identical to the serial run, come back in config order, and a
    configuration that raises lands in ``ExplorationResult.errors``
    instead of killing the sweep (in both the serial and parallel
    paths).  Raises :class:`ExplorationError` only when *no*
    configuration succeeded.
    """
    configs = tuple(configs)
    n_jobs = resolve_jobs(jobs)
    if faults.is_enabled():
        # The injector is process-global state workers do not inherit;
        # injection runs serial so every draw stays deterministic.
        n_jobs = 1
    tm = telemetry.get()
    results: dict[SelectionConfig, ConfigResult] = {}
    errors: dict[SelectionConfig, str] = {}
    with tm.span(
        "explore.configs", category="sampling",
        app=application_name, configs=len(configs), jobs=n_jobs,
    ):
        if n_jobs == 1 or len(configs) <= 1:
            for config in configs:
                try:
                    results[config] = evaluate_config(
                        config, log, timings, approx_size, options,
                        weighted_features, application_name,
                    )
                except Exception as exc:
                    errors[config] = f"{type(exc).__name__}: {exc}"
        else:
            outcomes = parallel_map(
                evaluate_config,
                [
                    (
                        config, log, timings, approx_size, options,
                        weighted_features, application_name,
                    )
                    for config in configs
                ],
                jobs=n_jobs,
                label="explore.fanout",
            )
            for config, outcome in zip(configs, outcomes):
                if outcome.ok:
                    results[config] = outcome.value
                else:
                    errors[config] = outcome.error or "unknown error"
        if errors:
            tm.inc("sampling.config_failures", len(errors))
    if not results:
        detail = "; ".join(
            f"{config.label}: {error}" for config, error in errors.items()
        )
        raise ExplorationError(
            f"every configuration failed for {application_name!r}: {detail}"
        )
    return ExplorationResult(
        application_name=application_name,
        results=results,
        total_instructions=log.total_instructions,
        errors=errors,
        health=health,
    )


@dataclasses.dataclass(frozen=True)
class ThresholdSweepPoint:
    """One point of Figure 7: a threshold's cross-app average outcome."""

    threshold_percent: float | None  #: None = pure error-minimizing policy
    mean_error_percent: float
    mean_speedup: float

    @property
    def label(self) -> str:
        if self.threshold_percent is None:
            return "min-error"
        return f"<= {self.threshold_percent:g}%"


def threshold_sweep(
    explorations: Iterable[ExplorationResult],
    thresholds: Sequence[float] = (0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> list[ThresholdSweepPoint]:
    """Figure 7's sweep: min-error policy plus each error threshold."""
    explorations = list(explorations)
    if not explorations:
        raise ValueError("threshold_sweep needs at least one exploration")
    points: list[ThresholdSweepPoint] = []

    chosen = [e.minimize_error() for e in explorations]
    points.append(
        ThresholdSweepPoint(
            threshold_percent=None,
            mean_error_percent=float(
                np.mean([c.error_percent for c in chosen])
            ),
            mean_speedup=float(
                np.mean([c.simulation_speedup for c in chosen])
            ),
        )
    )
    for threshold in thresholds:
        chosen = [e.co_optimize(threshold) for e in explorations]
        points.append(
            ThresholdSweepPoint(
                threshold_percent=threshold,
                mean_error_percent=float(
                    np.mean([c.error_percent for c in chosen])
                ),
                mean_speedup=float(
                    np.mean([c.simulation_speedup for c in chosen])
                ),
            )
        )
    return points
