"""SimPoint-style clustering and representative selection.

Reimplements the SimPoint 3.0 pipeline the paper uses (Hamerly et al.,
"SimPoint 3.0: Faster and more flexible program phase analysis", JILP
2005), including its support for **variable-size intervals**:

1. normalize each interval's sparse feature vector to relative
   frequencies;
2. randomly project to a low dimension (default 15, SimPoint's default);
3. run weighted k-means (weights = interval instruction counts) for
   every k in 1..min(max_k, distinct projected points) with k-means++
   seeding and multiple restarts -- a k above the distinct-point count
   could only split identical points, so it is never tried;
4. score each k with the Bayesian Information Criterion and pick the
   smallest k whose BIC reaches a coverage fraction (default 0.9) of the
   observed BIC range;
5. per cluster, select the interval closest to the centroid as the
   *simulation point*, and report its **representation ratio** -- the
   cluster's share of total dynamic instructions.

SimPoint "allows users to specify the maximum number of clusters ... but
may return fewer than this maximum" -- both behaviours are preserved
(``max_k`` caps k; BIC may choose fewer).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.obs import events as _events
from repro.sampling.features import FeatureMatrix, FeatureVector

#: Projected points equal to this many decimals count as one point when
#: clamping the k range: k-means cannot give more clusters than there
#: are distinct points without reseeding empty ones on every pass.
DISTINCT_DECIMALS = 9


@dataclasses.dataclass(frozen=True)
class SimPointOptions:
    """Knobs of the SimPoint pipeline (defaults match SimPoint 3.0)."""

    max_k: int = 10
    projection_dim: int = 15
    restarts: int = 3
    max_iterations: int = 100
    bic_coverage: float = 0.9
    seed: int = 493575226  # SimPoint 3.0's documented default seed
    #: Bypass BIC model selection and force exactly this k (clamped to the
    #: interval count).  Used by the fixed-k ablation; None = BIC decides.
    fixed_k: int | None = None

    def __post_init__(self) -> None:
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        if self.projection_dim < 1:
            raise ValueError(
                f"projection_dim must be >= 1, got {self.projection_dim}"
            )
        if not 0.0 <= self.bic_coverage <= 1.0:
            raise ValueError(
                f"bic_coverage must be in [0, 1], got {self.bic_coverage}"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ValueError(f"fixed_k must be >= 1, got {self.fixed_k}")


@dataclasses.dataclass(frozen=True)
class SimPointResult:
    """Clustering outcome: the selected simulation points and weights."""

    k: int
    labels: np.ndarray  # (n_intervals,) cluster id per interval
    representatives: tuple[int, ...]  # interval index per cluster
    representation_ratios: tuple[float, ...]  # instr share per cluster
    bic_by_k: dict[int, float]
    projected: np.ndarray  # (n_intervals, dim) projected features

    def __post_init__(self) -> None:
        if len(self.representatives) != self.k:
            raise ValueError("one representative required per cluster")
        total = sum(self.representation_ratios)
        if self.representation_ratios and not 0.999 <= total <= 1.001:
            raise ValueError(
                f"representation ratios must sum to 1, got {total}"
            )


def project_features(
    vectors: Sequence[FeatureVector],
    dim: int,
    seed: int,
) -> np.ndarray:
    """Normalize sparse vectors and randomly project to ``dim`` dims.

    Every distinct key across all intervals gets a random direction in
    ``[-1, 1]^dim`` (SimPoint's projection); an interval's projected
    vector is the frequency-weighted sum of its keys' directions.
    ``vectors`` is a :class:`FeatureMatrix` or a list of dicts.
    """
    matrix = FeatureMatrix.from_vectors(vectors)
    rng = np.random.default_rng(seed)
    directions = rng.uniform(-1.0, 1.0, size=(max(1, matrix.n_keys), dim))
    projected = np.zeros((matrix.n_rows, dim), dtype=np.float64)
    if matrix.rows.size == 0:
        return projected
    # One unbuffered scatter-add over all (interval, key) entries.  The
    # matrix lists them in the order the scalar loop visited them, and
    # ``np.add.at`` (like ``bincount``) accumulates in element order, so
    # the result is bit-identical to per-key accumulation.  A segmented
    # ``np.add.reduceat`` sums in another order and moves selections.
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    totals = np.bincount(rows, weights=vals, minlength=matrix.n_rows)
    keep = totals[rows] > 0
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    coeffs = vals / totals[rows]
    np.add.at(projected, rows, coeffs[:, None] * directions[cols])
    return projected


def _weighted_draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(p), p=p)`` without its per-call validation.

    ``Generator.choice`` draws by inverting the normalized CDF at one
    ``rng.random()`` uniform; doing the same here consumes the same
    stream and returns the same index.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_init(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted k-means++ seeding."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = _weighted_draw(weights / weights.sum(), rng)
    centroids[0] = points[first]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        scores = closest_sq * weights
        total = scores.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = _weighted_draw(scores / total, rng)
        centroids[j] = points[idx]
        dist = ((points - centroids[j]) ** 2).sum(axis=1)
        np.minimum(closest_sq, dist, out=closest_sq)
    return centroids


def _sq_distances(
    points: np.ndarray, point_sq: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """(n, k) squared point-to-centroid distances.

    ``point_sq`` holds the squared norm of each point, as an (n, 1) column.
    """
    return point_sq - 2.0 * points @ centroids.T + (centroids**2).sum(axis=1)


def _masked_update(
    points: np.ndarray,
    weights: np.ndarray,
    weighted: np.ndarray,
    point_sq: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
) -> int:
    """Per-cluster centroid update with empty-cluster reseeding.

    Updates ``centroids`` and (on a reseed) ``labels`` in place, one
    cluster at a time, and returns the number of reseeds.
    """
    reseeds = 0
    for j in range(centroids.shape[0]):
        mask = labels == j
        mass = weights[mask].sum()
        if mass > 0:
            centroids[j] = weighted[mask].sum(axis=0) / mass
            continue
        # Re-seed an empty cluster at the farthest point, measured
        # against the centroids *as updated so far this iteration*: the
        # caller's distances were computed before any centroid moved, so
        # they are stale for clusters updated earlier in this loop and
        # could reseed on a point that is now well covered.  The vacated
        # centroid itself is excluded -- it is the position being
        # replaced.
        current_d2 = _sq_distances(points, point_sq, centroids)
        current_d2[:, j] = np.inf
        farthest = int(current_d2.min(axis=1).argmax())
        centroids[j] = points[farthest]
        labels[farthest] = j
        reseeds += 1
        log = _events.get()
        if log.enabled:
            log.debug("simpoint.reseed", cluster=j, point=farthest)
    return reseeds


def _lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted Lloyd iterations; returns (labels, centroids, distortion).

    An iteration with no empty cluster updates every centroid with two
    ``bincount`` calls.  That is bit-identical to the per-cluster masked
    sums of :func:`_masked_update` under two conditions.  Weights must be
    integers (instruction counts), so a cluster's mass is exact in any
    summation order.  And the points need at least two dimensions: a
    masked ``sum(axis=0)`` then adds rows in order, exactly as
    ``bincount`` does, whereas a single column is summed pairwise.  Other
    iterations (an empty cluster to reseed, or 1-D points) keep the
    per-cluster loop.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    # Loop invariants, elementwise: hoisting them changes no value.
    point_sq = (points**2).sum(axis=1, keepdims=True)
    weighted = weights[:, None] * points
    # Cluster j's column c accumulates in bin j * dim + c.
    columns = np.arange(dim)
    iterations, capped, reseeds = max_iterations, True, 0
    for iteration in range(max_iterations):
        d2 = _sq_distances(points, point_sq, centroids)
        new_labels = d2.argmin(axis=1)
        mass = np.bincount(new_labels, weights=weights, minlength=k)
        if dim > 1 and (mass > 0).all():
            bins = (new_labels[:, None] * dim + columns).ravel()
            sums = np.bincount(
                bins, weights=weighted.ravel(), minlength=k * dim
            )
            np.divide(sums.reshape(k, dim), mass[:, None], out=centroids)
        else:
            reseeds += _masked_update(
                points, weights, weighted, point_sq, centroids, new_labels
            )
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        if converged:
            iterations, capped = iteration + 1, False
            break
    tm = telemetry.get()
    if tm.enabled:
        tm.inc("sampling.kmeans_iterations", iterations)
        if capped:
            tm.inc("sampling.kmeans_capped")
        if reseeds:
            tm.inc("sampling.kmeans_reseeds", reseeds)
    d2 = _sq_distances(points, point_sq, centroids)
    point_d2 = np.maximum(d2[np.arange(n), labels], 0.0)
    distortion = float((weights * point_d2).sum())
    return labels, centroids, distortion


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    options: SimPointOptions,
    seed_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``restarts`` weighted k-means."""
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for restart in range(options.restarts):
        rng = np.random.default_rng(
            options.seed + 7919 * (seed_offset + restart)
        )
        init = _kmeans_pp_init(points, weights, k, rng)
        labels, centroids, distortion = _lloyd(
            points, weights, init.copy(), options.max_iterations
        )
        if best is None or distortion < best[2]:
            best = (labels, centroids, distortion)
    assert best is not None
    return best


def bic_score(
    points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    distortion: float,
) -> float:
    """Pelleg-Moore BIC for a weighted clustering.

    Interval weights are renormalized so that total mass equals the number
    of intervals -- keeping the parameter penalty on the same footing as
    the likelihood regardless of the (scaled) instruction volumes.
    """
    n, d = points.shape
    k = centroids.shape[0]
    mass = weights / weights.sum() * n
    if n <= k:
        return float("-inf")
    variance = distortion / weights.sum() + 1e-12
    log_likelihood = 0.0
    for nj in np.bincount(labels, weights=mass, minlength=k):
        if nj > 0:
            log_likelihood += nj * np.log(nj / n)
    log_likelihood -= n * d / 2.0 * np.log(2.0 * np.pi * variance)
    log_likelihood -= (n - k) * d / 2.0
    n_params = k * (d + 1)
    return float(log_likelihood - n_params / 2.0 * np.log(n))


def run_simpoint(
    vectors: Sequence[FeatureVector],
    weights: Sequence[int] | np.ndarray,
    options: SimPointOptions | None = None,
) -> SimPointResult:
    """Full SimPoint pipeline over one application's intervals."""
    options = options or SimPointOptions()
    if len(vectors) == 0:
        raise ValueError("no intervals to cluster")
    weights_arr = np.asarray(weights, dtype=np.float64)
    if weights_arr.shape != (len(vectors),):
        raise ValueError(
            f"weights shape {weights_arr.shape} does not match "
            f"{len(vectors)} intervals"
        )
    if (weights_arr <= 0).any():
        raise ValueError("interval weights must be positive")

    points = project_features(vectors, options.projection_dim, options.seed)
    n = points.shape[0]
    max_k = min(options.max_k, n)

    candidates: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
    bic_by_k: dict[int, float] = {}
    if options.fixed_k is not None:
        # The fixed-k ablation exists to force k: only n bounds it.
        ks: tuple[int, ...] = (min(options.fixed_k, n),)
    else:
        distinct = len(
            np.unique(np.round(points, DISTINCT_DECIMALS), axis=0)
        )
        if distinct < max_k:
            tm = telemetry.get()
            if tm.enabled:
                tm.inc("sampling.kmeans_k_clamped")
            log = _events.get()
            if log.enabled:
                log.debug(
                    "simpoint.k_clamped", max_k=max_k, distinct=distinct
                )
            max_k = distinct
        ks = tuple(range(1, max_k + 1))
    for k in ks:
        labels, centroids, distortion = weighted_kmeans(
            points, weights_arr, k, options, seed_offset=1000 * k
        )
        candidates[k] = (labels, centroids, distortion)
        bic_by_k[k] = bic_score(
            points, weights_arr, labels, centroids, distortion
        )

    if options.fixed_k is not None:
        chosen_k = ks[0]
    else:
        scores = np.array([bic_by_k[k] for k in ks])
        finite = scores[np.isfinite(scores)]
        if finite.size == 0:
            chosen_k = max_k
        else:
            low, high = finite.min(), finite.max()
            threshold = low + options.bic_coverage * (high - low)
            chosen_k = next(
                k
                for k in ks
                if np.isfinite(bic_by_k[k]) and bic_by_k[k] >= threshold
            )

    labels, centroids, _ = candidates[chosen_k]
    representatives: list[int] = []
    ratios: list[float] = []
    total_weight = float(weights_arr.sum())
    kept = 0
    final_labels = labels.copy()
    for j in range(chosen_k):
        mask = labels == j
        if not mask.any():
            continue
        cluster_points = points[mask]
        d2 = ((cluster_points - centroids[j]) ** 2).sum(axis=1)
        local = int(d2.argmin())
        global_idx = int(np.nonzero(mask)[0][local])
        representatives.append(global_idx)
        ratios.append(float(weights_arr[mask].sum()) / total_weight)
        final_labels[mask] = kept
        kept += 1

    return SimPointResult(
        k=kept,
        labels=final_labels,
        representatives=tuple(representatives),
        representation_ratios=tuple(ratios),
        bic_by_k=bic_by_k,
        projected=points,
    )
