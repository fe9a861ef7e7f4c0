"""SimPoint: projection, weighted k-means, BIC model selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.obs import events as obs_events
from repro.sampling import simpoint
from repro.sampling.features import (
    ALL_FEATURE_KINDS,
    FeatureMatrix,
    build_feature_vectors,
    feature_vector,
)
from repro.sampling.intervals import IntervalScheme, divide
from repro.sampling.simpoint import (
    SimPointOptions,
    SimPointResult,
    _lloyd,
    _weighted_draw,
    bic_score,
    project_features,
    run_simpoint,
    weighted_kmeans,
)


def _two_phase_vectors(n_per_phase=30):
    """Two clearly separated behaviours plus tiny per-interval noise."""
    rng = np.random.default_rng(0)
    vectors = []
    for i in range(n_per_phase):
        vectors.append({("bb", "a", 0): 100.0 + rng.normal(0, 1),
                        ("bb", "a", 1): 10.0})
    for i in range(n_per_phase):
        vectors.append({("bb", "b", 0): 80.0 + rng.normal(0, 1),
                        ("bb", "b", 1): 40.0})
    weights = [1000] * (2 * n_per_phase)
    return vectors, weights


def test_projection_shape_and_determinism():
    vectors, _ = _two_phase_vectors()
    a = project_features(vectors, dim=15, seed=3)
    b = project_features(vectors, dim=15, seed=3)
    assert a.shape == (60, 15)
    np.testing.assert_array_equal(a, b)


def test_projection_seed_changes_embedding():
    vectors, _ = _two_phase_vectors()
    a = project_features(vectors, dim=15, seed=3)
    b = project_features(vectors, dim=15, seed=4)
    assert not np.allclose(a, b)


def test_projection_normalizes_frequencies():
    """Scaling a vector by a constant does not move its projection."""
    base = [{("x",): 1.0, ("y",): 3.0}]
    scaled = [{("x",): 10.0, ("y",): 30.0}]
    a = project_features(base, dim=8, seed=0)
    b = project_features(scaled, dim=8, seed=0)
    np.testing.assert_allclose(a, b)


def test_identical_vectors_project_identically():
    vectors = [{("k",): 5.0}, {("k",): 5.0}]
    points = project_features(vectors, dim=4, seed=0)
    np.testing.assert_array_equal(points[0], points[1])


def test_kmeans_separates_obvious_clusters():
    vectors, weights = _two_phase_vectors()
    points = project_features(vectors, dim=15, seed=0)
    labels, centroids, distortion = weighted_kmeans(
        points, np.asarray(weights, float), 2, SimPointOptions()
    )
    first = set(labels[:30].tolist())
    second = set(labels[30:].tolist())
    assert len(first) == 1 and len(second) == 1
    assert first != second
    # Distortion is weighted; normalize by total mass.
    assert distortion / float(np.sum(weights)) < 0.01


def test_kmeans_respects_weights():
    """A heavily weighted point pulls its centroid toward itself."""
    points = np.array([[0.0], [1.0], [10.0]])
    weights = np.array([1.0, 1.0, 1000.0])
    labels, centroids, _ = weighted_kmeans(
        points, weights, 2, SimPointOptions(restarts=5)
    )
    # The heavy point sits (almost) exactly on its centroid.
    heavy_centroid = centroids[labels[2]]
    assert abs(heavy_centroid[0] - 10.0) < 0.5


def test_run_simpoint_separates_two_phases():
    """SimPoint may sub-cluster within-phase noise (k >= 2, up to max),
    but no cluster may ever mix the two phases."""
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights, SimPointOptions(max_k=10))
    assert 2 <= result.k <= 10
    assert len(result.representatives) == result.k
    assert sum(result.representation_ratios) == pytest.approx(1.0)
    phase_a_labels = set(result.labels[:30].tolist())
    phase_b_labels = set(result.labels[30:].tolist())
    assert not (phase_a_labels & phase_b_labels)
    # Representatives cover both phases.
    reps = sorted(result.representatives)
    assert reps[0] < 30 and reps[-1] >= 30


def test_ratios_proportional_to_weight():
    vectors, _ = _two_phase_vectors()
    # Phase A carries 3x the instruction weight of phase B.
    weights = [3000] * 30 + [1000] * 30
    result = run_simpoint(vectors, weights)
    # Sum the ratios of clusters whose representatives sit in phase A:
    # they must carry 75% of the total weight regardless of sub-clustering.
    phase_a_ratio = sum(
        ratio
        for rep, ratio in zip(
            result.representatives, result.representation_ratios
        )
        if rep < 30
    )
    assert phase_a_ratio == pytest.approx(0.75, abs=0.01)


def test_single_interval_program():
    result = run_simpoint([{("k",): 1.0}], [100])
    assert result.k == 1
    assert result.representatives == (0,)
    assert result.representation_ratios == (1.0,)


def test_max_k_respected():
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights, SimPointOptions(max_k=1))
    assert result.k == 1


def test_may_return_fewer_than_max_k():
    """SimPoint may return fewer clusters than the max (Section V-B)."""
    vectors = [{("same",): 1.0} for _ in range(40)]
    result = run_simpoint(vectors, [10] * 40, SimPointOptions(max_k=10))
    assert result.k < 10


def test_determinism():
    vectors, weights = _two_phase_vectors()
    a = run_simpoint(vectors, weights)
    b = run_simpoint(vectors, weights)
    assert a.representatives == b.representatives
    assert a.representation_ratios == b.representation_ratios


def test_input_validation():
    with pytest.raises(ValueError, match="no intervals"):
        run_simpoint([], [])
    with pytest.raises(ValueError, match="does not match"):
        run_simpoint([{("k",): 1.0}], [1, 2])
    with pytest.raises(ValueError, match="positive"):
        run_simpoint([{("k",): 1.0}], [0])


def test_options_validation():
    with pytest.raises(ValueError):
        SimPointOptions(max_k=0)
    with pytest.raises(ValueError):
        SimPointOptions(projection_dim=0)
    with pytest.raises(ValueError):
        SimPointOptions(bic_coverage=1.5)
    with pytest.raises(ValueError):
        SimPointOptions(restarts=0)


def test_bic_prefers_true_k():
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights)
    # BIC at k=2 beats k=1 for clearly bimodal data.
    assert result.bic_by_k[2] > result.bic_by_k[1]


def test_labels_cover_all_intervals():
    vectors, weights = _two_phase_vectors()
    result = run_simpoint(vectors, weights)
    assert result.labels.shape == (60,)
    assert set(result.labels.tolist()) == set(range(result.k))


def test_empty_cluster_reseeds_on_current_distances():
    """Regression: reseeding an empty cluster used the distance matrix
    computed *before* this iteration's centroid updates.  With stale
    distances the farthest point can be one an updated centroid already
    sits on, wasting the cluster; distances must be recomputed against
    the updated centroids (excluding the vacated one)."""
    from repro.sampling.simpoint import _lloyd

    points = np.array([[0.0], [10.0], [21.0]])
    weights = np.array([1.0, 1.0, 1.0])
    # Initial centroids capture points 0+10 in cluster 0 and 21 in
    # cluster 1, leaving cluster 2 empty; after the update c0=5, c1=21.
    centroids = np.array([[9.0], [11.0], [100.0]])
    labels, centroids, _ = _lloyd(points, weights, centroids, 1)
    # Stale distances would reseed on point 21 (old min-distance 100)
    # even though the updated c1 sits exactly on it; the true farthest
    # point under the updated centroids is point 0 (distance 5 from c0).
    assert labels.tolist() == [2, 0, 1]
    assert centroids[2, 0] == 0.0
    assert centroids[0, 0] == pytest.approx(5.0)
    assert centroids[1, 0] == pytest.approx(21.0)


def test_reseeded_clusters_are_never_empty():
    """Every requested cluster ends up non-empty even when initial
    centroids collapse onto the same region."""
    rng = np.random.default_rng(0)
    points = np.concatenate(
        [rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))]
    )
    weights = np.ones(40)
    centroids = points[:3].copy()  # all three seeds in the first blob
    from repro.sampling.simpoint import _lloyd

    labels, centroids, _ = _lloyd(points, weights, centroids, 40)
    assert set(labels.tolist()) == {0, 1, 2}


def test_result_validation():
    with pytest.raises(ValueError, match="one representative"):
        SimPointResult(
            k=2,
            labels=np.zeros(3, dtype=np.int64),
            representatives=(0,),
            representation_ratios=(1.0,),
            bic_by_k={},
            projected=np.zeros((3, 2)),
        )
    with pytest.raises(ValueError, match="sum to 1"):
        SimPointResult(
            k=1,
            labels=np.zeros(3, dtype=np.int64),
            representatives=(0,),
            representation_ratios=(0.4,),
            bic_by_k={},
            projected=np.zeros((3, 2)),
        )


def _project_reference(vectors, dim, seed):
    """The original scalar projection loop, kept as the equivalence
    oracle for the vectorized ``project_features``."""
    keys = {}
    for vector in vectors:
        for key in vector:
            if key not in keys:
                keys[key] = len(keys)
    rng = np.random.default_rng(seed)
    directions = rng.uniform(-1.0, 1.0, size=(max(1, len(keys)), dim))
    projected = np.zeros((len(vectors), dim), dtype=np.float64)
    for i, vector in enumerate(vectors):
        total = sum(vector.values())
        if total <= 0:
            continue
        for key, value in vector.items():
            projected[i] += (value / total) * directions[keys[key]]
    return projected


def test_projection_matches_scalar_reference():
    """Vectorized projection is bit-identical to the scalar loop."""
    vectors, _ = _two_phase_vectors()
    # Add shared keys across phases and a many-key vector so the key
    # table and the scatter-add see interleaved first-appearances.
    rng = np.random.default_rng(5)
    vectors.append(
        {("bb", "a", j): float(rng.integers(1, 500)) for j in range(40)}
    )
    vectors.append({("bb", "b", 0): 7.0, ("bb", "a", 3): 2.0})
    for dim, seed in [(15, 493575226), (8, 0), (1, 99)]:
        got = project_features(vectors, dim, seed)
        want = _project_reference(vectors, dim, seed)
        np.testing.assert_array_equal(got, want)  # exact, not allclose


def test_projection_zero_total_vector():
    """An all-zero vector projects to the origin without dividing by 0."""
    vectors = [{("x",): 0.0}, {("x",): 5.0, ("y",): 5.0}]
    got = project_features(vectors, dim=4, seed=1)
    want = _project_reference(vectors, dim=4, seed=1)
    np.testing.assert_array_equal(got, want)
    assert (got[0] == 0.0).all()


def test_projection_empty_vectors():
    got = project_features([{}, {}], dim=3, seed=0)
    assert got.shape == (2, 3)
    assert (got == 0.0).all()
    matrix = FeatureMatrix.from_vectors([{}, {}])
    assert matrix.n_keys == 0 and matrix.rows.size == 0
    assert np.array_equal(project_features(matrix, dim=3, seed=0), got)


@pytest.mark.parametrize("kind", ALL_FEATURE_KINDS)
def test_projection_of_the_matrix_matches_the_scalar_dicts(
    small_workload, kind
):
    """``project_features`` on the feature matrix equals it on the
    scalar oracle's dicts, for every scheme and weighting."""
    log = small_workload.log
    for scheme in IntervalScheme:
        intervals = divide(log, scheme)
        for weighted in (True, False):
            matrix = build_feature_vectors(log, intervals, kind, weighted)
            scalar = [
                feature_vector(log, iv, kind, weighted) for iv in intervals
            ]
            assert np.array_equal(
                project_features(matrix, 15, 493575226),
                project_features(scalar, 15, 493575226),
            )


# -- k clamp, k-means++ draw, flattened Lloyd --------------------------------


def _three_distinct_rows(n=20):
    """``n`` intervals that repeat only three distinct behaviours."""
    shapes = [
        {("bb", "a"): 1.0},
        {("bb", "b"): 1.0},
        {("bb", "a"): 1.0, ("bb", "b"): 3.0},
    ]
    vectors = [dict(shapes[i % 3]) for i in range(n)]
    weights = [1000 + 37 * i for i in range(n)]
    return vectors, weights


def _counting_kmeans(monkeypatch):
    """Route ``run_simpoint``'s k-means through a k-recording wrapper."""
    seen = []
    real = simpoint.weighted_kmeans

    def counting(points, weights, k, options, seed_offset=0):
        seen.append(k)
        return real(points, weights, k, options, seed_offset)

    monkeypatch.setattr(simpoint, "weighted_kmeans", counting)
    return seen


def test_k_range_clamped_to_distinct_points(monkeypatch):
    vectors, weights = _three_distinct_rows()
    seen = _counting_kmeans(monkeypatch)
    with telemetry.session() as tm, obs_events.session() as log:
        result = run_simpoint(vectors, weights, SimPointOptions(max_k=10))
    assert sorted(result.bic_by_k) == [1, 2, 3]
    assert seen and max(seen) <= 3
    assert result.k <= 3
    assert tm.counter_value("sampling.kmeans_k_clamped") == 1
    [event] = [r for r in log.records() if r.name == "simpoint.k_clamped"]
    assert dict(event.fields) == {"max_k": 10, "distinct": 3}


def test_k_range_not_clamped_when_points_are_distinct(monkeypatch):
    vectors, weights = _two_phase_vectors()
    seen = _counting_kmeans(monkeypatch)
    with telemetry.session() as tm:
        result = run_simpoint(vectors, weights, SimPointOptions(max_k=6))
    assert sorted(result.bic_by_k) == list(range(1, 7))
    assert seen == list(range(1, 7))
    assert tm.counter_value("sampling.kmeans_k_clamped") == 0


def test_fixed_k_is_not_clamped_to_distinct_points(monkeypatch):
    """The fixed-k ablation forces k: only the interval count bounds it."""
    vectors, weights = _three_distinct_rows()
    seen = _counting_kmeans(monkeypatch)
    run_simpoint(vectors, weights, SimPointOptions(fixed_k=5))
    assert seen == [5]
    seen.clear()
    run_simpoint(vectors[:4], weights[:4], SimPointOptions(fixed_k=10))
    assert seen == [4]


@st.composite
def _draw_weights(draw):
    values = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    if not any(values):
        values[draw(st.integers(0, len(values) - 1))] = 1.0
    return np.asarray(values)


@settings(max_examples=200, deadline=None)
@given(weights=_draw_weights(), seed=st.integers(0, 2**32 - 1))
def test_weighted_draw_matches_generator_choice(weights, seed):
    """Same index as ``Generator.choice(n, p=p)`` on the same stream,
    zero-probability entries included, draw after draw."""
    p = weights / weights.sum()
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    for _ in range(5):
        idx = _weighted_draw(p, ours)
        assert idx == int(theirs.choice(len(p), p=p))
        assert p[idx] > 0
    # Both generators consumed the same stream.
    assert ours.random() == theirs.random()


def _lloyd_reference(points, weights, centroids, max_iterations):
    """The per-cluster masked Lloyd loop ``_lloyd`` flattens, verbatim,
    kept as the bit-identity oracle."""
    k = centroids.shape[0]
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iterations):
        d2 = (
            (points**2).sum(axis=1, keepdims=True)
            - 2.0 * points @ centroids.T
            + (centroids**2).sum(axis=1)
        )
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            mass = weights[mask].sum()
            if mass > 0:
                centroids[j] = (
                    weights[mask, None] * points[mask]
                ).sum(axis=0) / mass
            else:
                current_d2 = (
                    (points**2).sum(axis=1, keepdims=True)
                    - 2.0 * points @ centroids.T
                    + (centroids**2).sum(axis=1)
                )
                current_d2[:, j] = np.inf
                farthest = int(current_d2.min(axis=1).argmax())
                centroids[j] = points[farthest]
                new_labels[farthest] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    d2 = (
        (points**2).sum(axis=1, keepdims=True)
        - 2.0 * points @ centroids.T
        + (centroids**2).sum(axis=1)
    )
    point_d2 = np.maximum(d2[np.arange(points.shape[0]), labels], 0.0)
    distortion = float((weights * point_d2).sum())
    return labels, centroids, distortion


def _assert_lloyd_matches_reference(points, weights, init, iterations):
    with telemetry.session() as tm:
        got = _lloyd(points, weights, init.copy(), iterations)
    want = _lloyd_reference(points, weights, init.copy(), iterations)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    return tm


@pytest.mark.parametrize("dim", [1, 2, 15])
@pytest.mark.parametrize("trial", range(6))
def test_lloyd_matches_masked_loop_without_empty_clusters(dim, trial):
    rng = np.random.default_rng(100 * dim + trial)
    n, k = int(rng.integers(30, 400)), int(rng.integers(2, 11))
    points = rng.normal(size=(n, dim)) + rng.integers(0, 4, (n, 1))
    weights = rng.integers(1, 10**9, n).astype(np.float64)
    init = points[rng.choice(n, k, replace=False)]
    tm = _assert_lloyd_matches_reference(points, weights, init, 60)
    if dim > 1:
        assert tm.counter_value("sampling.kmeans_reseeds") == 0
    assert 1 <= tm.counter_value("sampling.kmeans_iterations") <= 60


@pytest.mark.parametrize("dim", [1, 3, 15])
@pytest.mark.parametrize("trial", range(6))
def test_lloyd_matches_masked_loop_with_empty_clusters(dim, trial):
    """Far-away and duplicate seeds leave clusters empty: the reseed
    path runs and stays bit-identical too."""
    rng = np.random.default_rng(7 + 100 * dim + trial)
    n, k = int(rng.integers(20, 200)), int(rng.integers(3, 11))
    points = rng.normal(size=(n, dim))
    weights = rng.integers(1, 10**9, n).astype(np.float64)
    init = np.repeat(points[:1], k, axis=0)
    init[-1] = 100.0
    tm = _assert_lloyd_matches_reference(points, weights, init, 40)
    assert tm.counter_value("sampling.kmeans_reseeds") > 0


def test_lloyd_counts_a_capped_run():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(200, 4))
    weights = np.ones(200)
    init = points[:8].copy()
    with telemetry.session() as tm:
        _lloyd(points, weights, init.copy(), 1)
    assert tm.counter_value("sampling.kmeans_iterations") == 1
    assert tm.counter_value("sampling.kmeans_capped") == 1
    with telemetry.session() as tm:
        _lloyd(points, weights, init.copy(), 500)
    assert tm.counter_value("sampling.kmeans_capped") == 0
