"""Interval division of GPU program traces (Table II).

The paper explores three ways to divide an execution into intervals, all
respecting two hard constraints from GPU hardware designers (Section V-A):
an interval is **at least one full kernel invocation**, and an interval
**never spans a synchronization call**.

* **Synchronization intervals** (largest): split at every OpenCL sync
  call.
* **Approximately-100M-instruction intervals** (medium): subdivide sync
  intervals into ~N-instruction chunks *without splitting kernel
  invocations*, so chunks are "slightly larger or smaller than exactly"
  the target -- hence "approximately".
* **Single-kernel intervals** (smallest): every kernel invocation is its
  own interval.

Our workloads are volume-scaled (DESIGN.md), so the medium division's
target defaults to :data:`DEFAULT_APPROX_SIZE` -- the scaled analogue of
the paper's 100M instructions, chosen so the medium interval holds ~5
invocations on average, matching Table II's ratio between per-kernel and
~100M interval counts (4749 vs 916).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Sequence

from repro.gtpin.tools.invocations import InvocationLog

#: Scaled analogue of the paper's "approximately 100M instructions".
DEFAULT_APPROX_SIZE = 2_000_000


class IntervalScheme(enum.Enum):
    """Table II's three interval divisions."""

    SYNC = "sync"
    APPROX_100M = "100m"
    SINGLE_KERNEL = "single"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Display names matching the paper's Table II rows.
SCHEME_LABELS = {
    IntervalScheme.SYNC: "Synchronization calls",
    IntervalScheme.APPROX_100M: "~100M instructions (scaled)",
    IntervalScheme.SINGLE_KERNEL: "Single kernel boundaries",
}


@dataclasses.dataclass(frozen=True)
class Interval:
    """A contiguous run of kernel invocations.

    ``start``/``stop`` index the invocation log (half-open).  The
    instruction count is the interval's weight in clustering and in
    representation ratios.
    """

    index: int
    start: int
    stop: int
    instruction_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(
                f"invalid interval span [{self.start}, {self.stop})"
            )

    @property
    def n_invocations(self) -> int:
        return self.stop - self.start

    def invocation_indices(self) -> range:
        return range(self.start, self.stop)


def _intervals_from_boundaries(
    log: InvocationLog, boundaries: Sequence[int]
) -> list[Interval]:
    """Build intervals from sorted invocation-index boundaries.

    ``boundaries`` are the *stop* indices of each interval; the last must
    equal ``len(log)``.  Every interval's instruction count is one
    difference of a single prefix sum over the log.
    """
    prefix = [
        0,
        *itertools.accumulate(p.instruction_count for p in log.invocations),
    ]
    intervals: list[Interval] = []
    start = 0
    for stop in boundaries:
        if stop <= start:
            continue
        intervals.append(
            Interval(
                index=len(intervals),
                start=start,
                stop=stop,
                instruction_count=prefix[stop] - prefix[start],
            )
        )
        start = stop
    return intervals


def sync_intervals(log: InvocationLog) -> list[Interval]:
    """Split at every synchronization call (largest division).

    Invocations carry the ``sync_epoch`` GT-Pin recorded: all invocations
    flushed by the same sync call share an epoch, so interval boundaries
    fall exactly where the epoch changes.
    """
    boundaries: list[int] = []
    previous_epoch: int | None = None
    for i, profile in enumerate(log.invocations):
        if previous_epoch is not None and profile.sync_epoch != previous_epoch:
            boundaries.append(i)
        previous_epoch = profile.sync_epoch
    boundaries.append(len(log.invocations))
    return _intervals_from_boundaries(log, boundaries)


def approx_instruction_intervals(
    log: InvocationLog, target_size: int = DEFAULT_APPROX_SIZE
) -> list[Interval]:
    """Subdivide sync intervals into ~``target_size``-instruction chunks.

    Kernel invocations are never split and sync boundaries are never
    crossed; a chunk closes once it has reached the target, so actual
    sizes straddle it ("approximately").
    """
    if target_size <= 0:
        raise ValueError(f"target_size must be positive, got {target_size}")
    boundaries: list[int] = []
    accumulated = 0
    previous_epoch: int | None = None
    for i, profile in enumerate(log.invocations):
        crossed_sync = (
            previous_epoch is not None and profile.sync_epoch != previous_epoch
        )
        if crossed_sync or accumulated >= target_size:
            boundaries.append(i)
            accumulated = 0
        accumulated += profile.instruction_count
        previous_epoch = profile.sync_epoch
    boundaries.append(len(log.invocations))
    return _intervals_from_boundaries(log, boundaries)


def single_kernel_intervals(log: InvocationLog) -> list[Interval]:
    """Every kernel invocation is its own interval (smallest division)."""
    return [
        Interval(
            index=i,
            start=i,
            stop=i + 1,
            instruction_count=profile.instruction_count,
        )
        for i, profile in enumerate(log.invocations)
    ]


def divide(
    log: InvocationLog,
    scheme: IntervalScheme,
    approx_size: int = DEFAULT_APPROX_SIZE,
) -> list[Interval]:
    """Divide an invocation log under one of the three schemes."""
    if len(log.invocations) == 0:
        raise ValueError("cannot divide an empty invocation log")
    if scheme is IntervalScheme.SYNC:
        return sync_intervals(log)
    if scheme is IntervalScheme.APPROX_100M:
        return approx_instruction_intervals(log, approx_size)
    if scheme is IntervalScheme.SINGLE_KERNEL:
        return single_kernel_intervals(log)
    raise ValueError(f"unknown interval scheme {scheme!r}")


@dataclasses.dataclass(frozen=True)
class IntervalSpaceRow:
    """One row of Table II for one application set."""

    scheme: IntervalScheme
    min_intervals: int
    avg_intervals: float
    max_intervals: int


def interval_space_summary(
    logs: Sequence[InvocationLog],
    approx_size: int = DEFAULT_APPROX_SIZE,
) -> list[IntervalSpaceRow]:
    """Table II: min/avg/max intervals per program, per scheme."""
    rows = []
    for scheme in (
        IntervalScheme.SYNC,
        IntervalScheme.APPROX_100M,
        IntervalScheme.SINGLE_KERNEL,
    ):
        counts = [len(divide(log, scheme, approx_size)) for log in logs]
        rows.append(
            IntervalSpaceRow(
                scheme=scheme,
                min_intervals=min(counts),
                avg_intervals=sum(counts) / len(counts),
                max_intervals=max(counts),
            )
        )
    return rows
