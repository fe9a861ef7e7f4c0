"""Feature vectors: Table III's ten constructions."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gtpin.tools.invocations import InvocationLog, InvocationProfile
from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    FeatureMatrix,
    build_feature_vectors,
    feature_vector,
)
from repro.sampling.intervals import IntervalScheme, divide
from repro.sampling.simpoint import project_features


@pytest.fixture(scope="module")
def log(small_workload):
    return small_workload.log


@pytest.fixture(scope="module")
def intervals(log):
    return divide(log, IntervalScheme.SYNC)


def test_exactly_ten_feature_kinds():
    assert len(ALL_FEATURE_KINDS) == 10
    labels = {k.value for k in ALL_FEATURE_KINDS}
    assert labels == {
        "KN", "KN-ARGS", "KN-GWS", "KN-ARGS-GWS", "KN-RW",
        "BB", "BB-R", "BB-W", "BB-R-W", "BB-(R+W)",
    }


def test_kind_classification():
    assert FeatureKind.KN.is_kernel_based
    assert FeatureKind.BB_R.is_block_based
    assert FeatureKind.KN_RW.uses_memory
    assert not FeatureKind.BB.uses_memory


def test_kn_keys_are_kernel_names(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.KN)
    for key in vec:
        assert key[0] == "kn"
    kernels_in_interval = {
        log.invocations[i].kernel_name
        for i in intervals[0].invocation_indices()
    }
    assert {key[1] for key in vec} == kernels_in_interval


def test_kn_weighting_by_instructions(log, intervals):
    """KN vector values equal instructions contributed per kernel."""
    interval = intervals[0]
    vec = feature_vector(log, interval, FeatureKind.KN)
    manual: dict = {}
    for i in interval.invocation_indices():
        p = log.invocations[i]
        key = ("kn", p.kernel_name)
        manual[key] = manual.get(key, 0.0) + p.instruction_count
    assert vec == manual


def test_kn_args_distinguishes_argument_values(log, intervals):
    whole_program = divide(log, IntervalScheme.SYNC)
    kn = set()
    kn_args = set()
    for interval in whole_program:
        kn |= set(feature_vector(log, interval, FeatureKind.KN))
        kn_args |= set(feature_vector(log, interval, FeatureKind.KN_ARGS))
    assert len(kn_args) >= len(kn)


def test_kn_gws_key_includes_gws(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.KN_GWS)
    for key in vec:
        assert isinstance(key[2], int)  # the global work size


def test_kn_rw_adds_byte_dimensions(log, intervals):
    base = feature_vector(log, intervals[0], FeatureKind.KN)
    rw = feature_vector(log, intervals[0], FeatureKind.KN_RW)
    assert len(rw) > len(base)
    read_keys = [k for k in rw if k[0] == "kn_r"]
    write_keys = [k for k in rw if k[0] == "kn_w"]
    assert read_keys and write_keys


def test_bb_keys_are_kernel_block_pairs(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB)
    for key in vec:
        assert key[0] == "bb"
        assert isinstance(key[2], int)


def test_bb_weighting_by_block_size(log, intervals):
    """BB entries are execution counts times the block's instruction count."""
    interval = intervals[0]
    vec = feature_vector(log, interval, FeatureKind.BB)
    total = sum(vec.values())
    assert total == pytest.approx(float(interval.instruction_count))


def test_bb_unweighted_counts_executions(log, intervals):
    interval = intervals[0]
    vec = feature_vector(log, interval, FeatureKind.BB, weighted=False)
    manual = 0
    for i in interval.invocation_indices():
        manual += int(log.invocations[i].block_counts.sum())
    assert sum(vec.values()) == pytest.approx(float(manual))


def test_bb_r_only_adds_read_dimensions(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB_R)
    prefixes = {k[0] for k in vec}
    assert prefixes <= {"bb", "bb_r"}
    assert "bb_r" in prefixes


def test_bb_w_only_adds_write_dimensions(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB_W)
    prefixes = {k[0] for k in vec}
    assert prefixes <= {"bb", "bb_w"}


def test_bb_r_w_adds_both(log, intervals):
    vec = feature_vector(log, intervals[0], FeatureKind.BB_R_W)
    prefixes = {k[0] for k in vec}
    assert {"bb", "bb_r"} <= prefixes or {"bb", "bb_w"} <= prefixes


def test_bb_r_plus_w_combines(log, intervals):
    combined = feature_vector(log, intervals[0], FeatureKind.BB_R_PLUS_W)
    separate = feature_vector(log, intervals[0], FeatureKind.BB_R_W)
    combined_bytes = sum(v for k, v in combined.items() if k[0] == "bb_rw")
    separate_bytes = sum(
        v for k, v in separate.items() if k[0] in ("bb_r", "bb_w")
    )
    assert combined_bytes == pytest.approx(separate_bytes)


def test_build_feature_vectors_aligns_with_intervals(log, intervals):
    vectors = build_feature_vectors(log, intervals, FeatureKind.BB)
    assert len(vectors) == len(intervals)
    for vec in vectors:
        assert vec  # every interval has at least one event


def test_vectors_differ_across_phases(log):
    """Different program phases produce different feature vectors."""
    intervals = divide(log, IntervalScheme.SYNC)
    vectors = build_feature_vectors(log, intervals, FeatureKind.BB)
    assert any(
        set(a) != set(b) or a != b
        for a, b in zip(vectors, vectors[1:])
    )


def _assert_matches_scalar(log, intervals, kind, weighted=True):
    """The matrix reads as the scalar dicts -- same keys in the same
    order, exact floats -- and equals the matrix of those dicts, column
    order included, so it also projects to the same points."""
    matrix = build_feature_vectors(log, intervals, kind, weighted)
    scalar = [feature_vector(log, iv, kind, weighted) for iv in intervals]
    assert len(matrix) == len(scalar)
    for got, want in zip(matrix, scalar):
        assert list(got.items()) == list(want.items())  # exact, ordered
    rebuilt = FeatureMatrix.from_vectors(scalar)
    assert matrix.keys == rebuilt.keys
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(matrix, name), getattr(rebuilt, name))
    return matrix


class TestBatchedEquivalence:
    """The feature matrix is bit-identical to the scalar oracle --
    values AND key order (key order feeds the random projection)."""

    @pytest.mark.parametrize("kind", ALL_FEATURE_KINDS)
    @pytest.mark.parametrize("weighted", [True, False])
    def test_all_block_kinds_and_schemes(self, log, kind, weighted):
        for scheme in IntervalScheme:
            _assert_matches_scalar(log, divide(log, scheme), kind, weighted)

    def test_kernel_kinds_unchanged(self, log, intervals):
        for kind in ALL_FEATURE_KINDS:
            if kind.is_block_based:
                continue
            built = build_feature_vectors(log, intervals, kind)
            scalar = [feature_vector(log, iv, kind) for iv in intervals]
            assert list(built) == scalar


def test_matrix_sequence_view(log, intervals):
    matrix = build_feature_vectors(log, intervals, FeatureKind.BB_R)
    scalar = [feature_vector(log, iv, FeatureKind.BB_R) for iv in intervals]
    assert matrix[-1] == scalar[-1]
    assert matrix[1:3] == scalar[1:3]
    assert matrix.n_keys == len({key for vec in scalar for key in vec})
    with pytest.raises(IndexError):
        matrix[len(scalar)]
    assert FeatureMatrix.from_vectors(matrix) is matrix


# -- degenerate logs -----------------------------------------------------------


def _stub_binary(instruction_counts, bytes_read, bytes_written):
    """Only the static per-block arrays the features read."""
    arrays = SimpleNamespace(
        instruction_counts=np.asarray(instruction_counts, dtype=np.int64),
        bytes_read=np.asarray(bytes_read, dtype=np.int64),
        bytes_written=np.asarray(bytes_written, dtype=np.int64),
    )
    return SimpleNamespace(arrays=arrays)


_BINARIES = {
    "k.a": _stub_binary([3, 5, 2], [0, 64, 0], [0, 32, 16]),
    "k.b": _stub_binary([4, 1], [8, 0], [0, 8]),
    "k.zero": _stub_binary([0, 0, 0], [0, 0, 0], [0, 0, 0]),
}


def _synthetic_log(runs):
    """One invocation per ``(kernel, block counts, sync epoch)``."""
    profiles = []
    for i, (kernel, counts, epoch) in enumerate(runs):
        arrays = _BINARIES[kernel].arrays
        counts = np.asarray(counts, dtype=np.int64)
        profiles.append(
            InvocationProfile(
                index=i,
                kernel_name=kernel,
                global_work_size=64 * (1 + i % 2),
                arg_items=(("n", float(i % 3)),),
                instruction_count=int(counts @ arrays.instruction_counts),
                bytes_read=int(counts @ arrays.bytes_read),
                bytes_written=int(counts @ arrays.bytes_written),
                block_counts=counts,
                sync_epoch=epoch,
                enqueue_call_index=i,
            )
        )
    return InvocationLog(invocations=tuple(profiles), binaries=_BINARIES)


@pytest.mark.parametrize("kind", ALL_FEATURE_KINDS)
def test_log_where_no_block_executes(kind):
    log = _synthetic_log(
        [("k.a", [0, 0, 0], 0), ("k.b", [0, 0], 0), ("k.a", [0, 0, 0], 1)]
    )
    for scheme in IntervalScheme:
        intervals = divide(log, scheme)
        matrix = _assert_matches_scalar(log, intervals, kind)
        points = project_features(matrix, 15, 7)
        assert points.shape == (len(intervals), 15)
        assert not points.any()
        if kind.is_block_based:
            assert matrix.n_keys == 0 and matrix.rows.size == 0
            assert list(matrix) == [{}] * len(intervals)


@pytest.mark.parametrize("kind", ALL_FEATURE_KINDS)
@pytest.mark.parametrize("weighted", [True, False])
def test_single_interval_log(kind, weighted):
    log = _synthetic_log([("k.a", [1, 4, 1], 0)])
    for scheme in IntervalScheme:
        intervals = divide(log, scheme)
        assert len(intervals) == 1
        _assert_matches_scalar(log, intervals, kind, weighted)


@pytest.mark.parametrize("kind", ALL_FEATURE_KINDS)
@pytest.mark.parametrize("weighted", [True, False])
def test_kernel_with_zero_instruction_blocks(kind, weighted):
    log = _synthetic_log(
        [
            ("k.zero", [2, 0, 5], 0),
            ("k.a", [1, 3, 1], 0),
            ("k.zero", [1, 1, 1], 1),
            ("k.b", [0, 7], 1),
            ("k.zero", [4, 0, 0], 2),
        ]
    )
    for scheme in IntervalScheme:
        matrix = _assert_matches_scalar(
            log, divide(log, scheme, approx_size=20), kind, weighted
        )
        if kind is FeatureKind.BB and weighted:
            # Executed zero-instruction blocks keep their (0.0) entries.
            assert ("bb", "k.zero", 2) in matrix.keys
