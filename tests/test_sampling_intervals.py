"""Interval division: the Table II schemes and their hard constraints."""

import pytest

from repro.sampling.intervals import (
    Interval,
    IntervalScheme,
    approx_instruction_intervals,
    divide,
    interval_space_summary,
    single_kernel_intervals,
    sync_intervals,
)
from repro.sampling.pipeline import profile_workload


@pytest.fixture(scope="module")
def log(small_workload):
    return small_workload.log


def _assert_partition(intervals, log):
    """Intervals tile the invocation log exactly, in order."""
    assert intervals[0].start == 0
    assert intervals[-1].stop == len(log.invocations)
    for prev, cur in zip(intervals, intervals[1:]):
        assert cur.start == prev.stop
    for i, interval in enumerate(intervals):
        assert interval.index == i


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(index=0, start=3, stop=3, instruction_count=1)
    with pytest.raises(ValueError):
        Interval(index=0, start=-1, stop=2, instruction_count=1)


def test_sync_intervals_partition(log):
    _assert_partition(sync_intervals(log), log)


def test_sync_intervals_respect_epochs(log):
    """No interval spans a synchronization call."""
    for interval in sync_intervals(log):
        epochs = {
            log.invocations[i].sync_epoch
            for i in interval.invocation_indices()
        }
        assert len(epochs) == 1


def test_approx_intervals_partition(log):
    _assert_partition(approx_instruction_intervals(log, 200_000), log)


def test_approx_intervals_respect_sync_boundaries(log):
    for interval in approx_instruction_intervals(log, 10**12):
        epochs = {
            log.invocations[i].sync_epoch
            for i in interval.invocation_indices()
        }
        assert len(epochs) == 1


def test_approx_intervals_near_target(log):
    target = 200_000
    intervals = approx_instruction_intervals(log, target)
    # Multi-invocation intervals only close once they reach the target, so
    # they are at least target-sized minus their last invocation; they are
    # "approximately" target and never split an invocation.
    for interval in intervals:
        if interval.n_invocations > 1:
            last = log.invocations[interval.stop - 1].instruction_count
            assert interval.instruction_count >= target or last > 0


def test_approx_smaller_target_makes_more_intervals(log):
    coarse = approx_instruction_intervals(log, 10**9)
    fine = approx_instruction_intervals(log, 5_000)
    assert len(fine) > len(coarse)


def test_approx_target_validation(log):
    with pytest.raises(ValueError):
        approx_instruction_intervals(log, 0)


def test_single_kernel_intervals(log):
    intervals = single_kernel_intervals(log)
    assert len(intervals) == len(log.invocations)
    _assert_partition(intervals, log)
    for i, interval in enumerate(intervals):
        assert interval.n_invocations == 1
        assert (
            interval.instruction_count
            == log.invocations[i].instruction_count
        )


def test_scheme_ordering(log):
    """Sync intervals are the largest division, single-kernel the smallest."""
    n_sync = len(divide(log, IntervalScheme.SYNC))
    n_approx = len(divide(log, IntervalScheme.APPROX_100M, 200_000))
    n_single = len(divide(log, IntervalScheme.SINGLE_KERNEL))
    assert n_sync <= n_approx <= n_single


def test_interval_weights_sum_to_total(log):
    for scheme in IntervalScheme:
        intervals = divide(log, scheme, 200_000)
        assert (
            sum(iv.instruction_count for iv in intervals)
            == log.total_instructions
        )


def test_interval_space_summary(log):
    rows = interval_space_summary([log, log], 200_000)
    assert len(rows) == 3
    assert rows[0].scheme is IntervalScheme.SYNC
    for row in rows:
        assert row.min_intervals <= row.avg_intervals <= row.max_intervals


def test_divide_empty_log_raises(small_workload):
    import dataclasses

    empty = dataclasses.replace(small_workload.log, invocations=())
    with pytest.raises(ValueError, match="empty"):
        divide(empty, IntervalScheme.SYNC)


@pytest.fixture(scope="module")
def mini_logs(mini_suite):
    return [profile_workload(app, trial_seed=0).log for app in mini_suite]


@pytest.mark.parametrize("scheme", list(IntervalScheme))
def test_divide_weights_equal_per_interval_sums(mini_logs, scheme):
    """The prefix-sum weights equal summing each interval's invocations,
    and stay Python ints (JSON and selection reprs depend on it)."""
    for log in mini_logs:
        for approx_size in (2_000_000, 50_000):
            for interval in divide(log, scheme, approx_size):
                assert type(interval.instruction_count) is int
                assert interval.instruction_count == sum(
                    log.invocations[i].instruction_count
                    for i in interval.invocation_indices()
                )
