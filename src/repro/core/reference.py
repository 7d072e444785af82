"""Loop-based oracle implementations of the pattern-search engine.

These are the original implementations (scalar Python loops, full stable
sorts and float broadcasts) that :mod:`repro.core.kmeans`,
:mod:`repro.core.pruning` and :mod:`repro.core.transforms` shipped with
before the Shfl-BW pattern search was vectorized.  They are deliberately
kept verbatim (mirroring :mod:`repro.sparse.spmm_reference` for the SpMM
engine); the one addition is the k-means++ oracle's optional ``dists``
output, which shares the engine's call surface and records the seed's own
distances, the first Lloyd step's:

* the property-based test-suite uses them as the *oracle* the vectorized
  engine must match bit-for-bit — identical masks, groups, permutations and
  assignments on every input,
* ``benchmarks/bench_pattern_search.py`` times them against the vectorized
  engine on a GNMT-scale search to document (and gate) the speedup.

Nothing in the hot paths should import from this module; it exists purely as
a correctness yardstick.
"""

from __future__ import annotations

import numpy as np

from .pruning import ShflBWSearchResult, _check_scores
from .transforms import groups_to_permutation

__all__ = [
    "balanced_assignment_loop",
    "balanced_kmeans_loop",
    "kmeans_plusplus_init_loop",
    "unstructured_mask_loop",
    "vector_wise_mask_loop",
    "group_rows_by_support_loop",
    "search_shflbw_pattern_loop",
]


def kmeans_plusplus_init_loop(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    *,
    dists: np.ndarray | None = None,
) -> np.ndarray:
    """The seed ``kmeans_plusplus_init``: one broadcast distance pass per centroid.

    ``dists``, if given, receives in column ``c`` the distances to seed
    ``c``, cast to its type.  On 0/1 points every distance is an exact
    integer; the seeding itself is the seed's, untouched.
    """
    n = points.shape[0]
    if num_clusters <= 0 or num_clusters > n:
        raise ValueError("num_clusters must be in [1, n_points]")

    def record(c: int, seed_dists: np.ndarray) -> np.ndarray:
        if dists is not None:
            dists[:, c] = seed_dists
        return seed_dists

    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = record(0, np.sum((points - centroids[0]) ** 2, axis=1))
    for c in range(1, num_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centroids[c] = points[idx]
        closest = np.minimum(
            closest, record(c, np.sum((points - centroids[c]) ** 2, axis=1))
        )
    return centroids


def balanced_assignment_loop(
    points: np.ndarray, centroids: np.ndarray, capacity: int
) -> np.ndarray:
    """Greedy capacity-constrained assignment, one sorted pair at a time.

    The seed implementation of ``kmeans._balanced_assignment``: walk the
    ``n * k`` distance pairs in ascending order in a Python loop, assigning
    each row to the first cluster with spare capacity.
    """
    n = points.shape[0]
    k = centroids.shape[0]
    # (n, k) squared distances.
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(dists, axis=None, kind="stable")
    assign = np.full(n, -1, dtype=np.int64)
    remaining = np.full(k, capacity, dtype=np.int64)
    assigned = 0
    for flat in order:
        row, cluster = divmod(int(flat), k)
        if assign[row] != -1 or remaining[cluster] == 0:
            continue
        assign[row] = cluster
        remaining[cluster] -= 1
        assigned += 1
        if assigned == n:
            break
    return assign


def balanced_kmeans_loop(
    points: np.ndarray,
    group_size: int,
    *,
    num_iters: int = 10,
    seed: int = 0,
) -> list[np.ndarray]:
    """The seed ``balanced_kmeans``: loop assignment + per-cluster mean loop."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    m = points.shape[0]
    if group_size <= 0 or m % group_size:
        raise ValueError(f"M={m} must be a positive multiple of group_size={group_size}")
    num_clusters = m // group_size
    if num_clusters == 1:
        return [np.arange(m, dtype=np.int64)]

    rng = np.random.default_rng(seed)
    centroids = kmeans_plusplus_init_loop(points, num_clusters, rng)
    assign = balanced_assignment_loop(points, centroids, group_size)
    for _ in range(max(0, num_iters - 1)):
        for c in range(num_clusters):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        new_assign = balanced_assignment_loop(points, centroids, group_size)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    groups = [
        np.sort(np.nonzero(assign == c)[0]).astype(np.int64)
        for c in range(num_clusters)
    ]
    groups.sort(key=lambda g: int(g[0]))
    return groups


def unstructured_mask_loop(scores: np.ndarray, density: float) -> np.ndarray:
    """The seed ``unstructured_mask``: one stable argsort of all scores."""
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    total = scores.size
    keep = max(1, int(round(density * total)))
    if keep >= total:
        return np.ones_like(scores, dtype=bool)
    flat = scores.reshape(-1)
    # argsort descending, stable so earlier positions win ties.
    order = np.argsort(-flat, kind="stable")
    mask = np.zeros(total, dtype=bool)
    mask[order[:keep]] = True
    return mask.reshape(scores.shape)


def vector_wise_mask_loop(
    scores: np.ndarray, density: float, vector_size: int
) -> np.ndarray:
    """The seed ``vector_wise_mask``: one argsort per consecutive row group."""
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    m, k = scores.shape
    v = vector_size
    if v <= 0 or m % v:
        raise ValueError(f"M={m} must be a positive multiple of V={v}")
    keep_cols = max(1, int(round(density * k)))
    mask = np.zeros((m, k), dtype=bool)
    for g in range(m // v):
        group_scores = scores[g * v : (g + 1) * v, :].sum(axis=0)
        order = np.argsort(-group_scores, kind="stable")
        kept = order[:keep_cols]
        mask[g * v : (g + 1) * v, kept] = True
    return mask


def group_rows_by_support_loop(mask: np.ndarray, vector_size: int) -> list[np.ndarray]:
    """The seed ``group_rows_by_support``: per-row dict hashing of supports."""
    mask = np.asarray(mask) != 0
    m = mask.shape[0]
    v = vector_size
    if v <= 0 or m % v:
        raise ValueError(f"M={m} must be a positive multiple of V={v}")

    by_support: dict[bytes, list[int]] = {}
    for i in range(m):
        by_support.setdefault(mask[i].tobytes(), []).append(i)

    groups: list[np.ndarray] = []
    leftovers: list[int] = []
    for rows in by_support.values():
        full, rest = divmod(len(rows), v)
        for g in range(full):
            groups.append(np.asarray(rows[g * v : (g + 1) * v], dtype=np.int64))
        leftovers.extend(rows[len(rows) - rest :])
    leftovers.sort()
    for g in range(len(leftovers) // v):
        groups.append(np.asarray(leftovers[g * v : (g + 1) * v], dtype=np.int64))
    return groups


def search_shflbw_pattern_loop(
    scores: np.ndarray,
    density: float,
    vector_size: int,
    *,
    beta_factor: float = 2.0,
    kmeans_iters: int = 10,
    seed: int = 0,
) -> ShflBWSearchResult:
    """The seed two-stage pattern search built from the loop oracles.

    Identical driver to :func:`repro.core.pruning.search_shflbw_pattern`,
    with the unstructured mask, the k-means clustering and the vector-wise
    pruning stage routed through the reference implementations.
    """
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if beta_factor <= 0:
        raise ValueError("beta_factor must be positive")
    m, _ = scores.shape
    if vector_size <= 0 or m % vector_size:
        raise ValueError(f"M={m} must be a positive multiple of V={vector_size}")

    beta = min(1.0, beta_factor * density)
    coarse_mask = unstructured_mask_loop(scores, beta)
    groups = balanced_kmeans_loop(
        coarse_mask.astype(np.float64),
        vector_size,
        num_iters=kmeans_iters,
        seed=seed,
    )
    row_indices = groups_to_permutation(groups, m)

    permuted_scores = scores[row_indices, :]
    permuted_mask = vector_wise_mask_loop(permuted_scores, density, vector_size)
    mask = np.zeros_like(permuted_mask)
    mask[row_indices, :] = permuted_mask

    retained = float(scores[mask].sum())
    total = float(scores.sum())
    return ShflBWSearchResult(
        mask=mask,
        row_indices=row_indices,
        groups=tuple(tuple(int(i) for i in g) for g in groups),
        retained_score=retained,
        total_score=total,
    )
