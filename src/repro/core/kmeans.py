"""Capacity-constrained (balanced) k-means for row-mask clustering.

The Shfl-BW pattern search (Section 5, Figure 5) clusters the rows of a binary
importance mask into groups of exactly ``V`` rows, so that rows keeping
weights in similar columns end up in the same group.  Standard k-means does
not respect the fixed group size, so this module implements a balanced
variant:

1. centroids are seeded with k-means++ over the binary rows,
2. each iteration assigns rows to centroids greedily in ascending distance
   order subject to a per-cluster capacity of ``V``,
3. centroids are recomputed as the mean of their assigned rows.

Distances are squared Euclidean, which on binary vectors equals the Hamming
distance; everything is deterministic given the ``seed``.

This is the vectorized engine; the original implementation (one Python loop
iteration per sorted distance pair — ``n * k`` iterations per Lloyd step —
and a float broadcast per k-means++ centroid) is preserved verbatim in
:mod:`repro.core.reference` as the bit-for-bit oracle the property tests
compare against.  Five techniques replace the loops, sorts and broadcasts
without changing a single output bit:

* **Packed-bit k-means++** — on binary points every seeding distance is a
  Hamming distance, an exact integer: a popcount (``np.bitwise_count``) over
  the rows packed into uint64 words yields the seed's distances, and so its
  sampling probabilities and RNG draws, without a float pass over the
  ``(n, K)`` matrix per centroid.

* **Exact Gram-matrix distances** — on the pattern search's actual inputs
  (binary mask rows, power-of-two group sizes) every quantity involved is a
  dyadic rational with a small numerator: points are 0/1, centroids are
  means of ``V = 2^t`` binary rows (``j / V``), so squared distances are
  exact multiples of ``1 / V^2`` well below 2^53.  Floating-point addition
  and multiplication on such values are *exact* in any association order,
  which makes the BLAS form ``|x|^2 - 2 x.c + |c|^2`` bitwise identical to
  the seed's elementwise ``((x - c) ** 2).sum()`` — at a matmul's cost
  instead of an ``(n, k, K)`` broadcast.
* **Integer-keyed pair order** — the same proof makes ``d * V^2`` an exact
  integer for every pair, so the greedy's visiting order (the stable argsort
  of all ``n * k`` distances) is the plain sort of the unique int64 keys
  ``(d * V^2) * (n * k) + pair_index``, built and sorted in the distance
  buffer itself.
* **Chunked broadcasting** — for inputs outside that regime (non-binary
  points, non-power-of-two capacities) the seed expression is evaluated
  verbatim over row blocks: elementwise ops and a last-axis reduction are
  independent of the leading batch dimension, so the result is bitwise
  identical while the ``(n, k, K)`` intermediate never materialises; those
  distances are ordered by the stable float argsort.
* **Prefix-accepted greedy rounds** — the capacity-constrained assignment
  walks the sorted distance pairs in vectorized chunks.  Within a chunk,
  duplicate-row pairs are skipped and every pair up to the first *capacity*
  rejection is provably processed exactly as the sequential greedy would,
  so whole prefixes are accepted per round instead of one pair per Python
  iteration; each rejection permanently retires a full cluster, bounding
  the number of rounds by the cluster count.
"""

from __future__ import annotations

import numpy as np

from .transforms import _pack_rows

__all__ = ["balanced_kmeans", "kmeans_plusplus_init"]

#: Elements per distance-chunk in the broadcast fallback (about 32 MiB of
#: float64 intermediates per block, instead of the seed's full (n, k, K)).
_CHUNK_ELEMENTS = 1 << 22


def _is_binary(points: np.ndarray) -> bool:
    """Whether every entry is exactly 0.0 or 1.0 (the pattern-search case)."""
    return bool(np.all((points == 0.0) | (points == 1.0)))


def _exact_denominator(centroids: np.ndarray, capacity: int | None) -> int | None:
    """A power-of-two ``D`` with ``centroids * D`` exactly integral, if any.

    Multiplying by a power of two only shifts exponents, so the integrality
    check is itself exact: a hit proves every centroid entry is a dyadic
    rational ``j / D`` represented without rounding.  Candidates are ``1``
    (centroids that are raw binary rows, e.g. the k-means++ seeds) and the
    group capacity when it is a power of two (centroids that are means of
    ``capacity`` binary rows).  Returns ``None`` when no candidate fits.
    """
    candidates = [1]
    if capacity is not None and capacity > 0 and capacity & (capacity - 1) == 0:
        candidates.append(capacity)
    for denom in candidates:
        scaled = centroids * float(denom)
        if np.all(scaled == np.rint(scaled)):
            return denom
    return None


def _pairwise_sq_dists(
    points: np.ndarray, centroids: np.ndarray, capacity: int | None, binary: bool
) -> tuple[np.ndarray, int | None]:
    """``(n, k)`` squared distances, bitwise equal to the seed broadcast.

    Returns the distances and, when they are proven exact, the denominator
    ``D`` that makes every one of them an integer multiple of ``1 / D**2``
    (``None`` otherwise).  ``binary`` says whether every point is 0/1.

    The fast path rewrites ``|x - c|^2`` as ``|x|^2 - 2 x.c + |c|^2`` and is
    only taken when every term is provably exact (binary points, dyadic
    centroids, sums below 2^53) — then *any* summation order, including the
    BLAS one, yields the identical float.  Otherwise the seed expression is
    evaluated verbatim over row chunks, which is bitwise identical because
    elementwise arithmetic and the last-axis pairwise sum do not depend on
    the leading dimension.
    """
    n, dim = points.shape
    if binary:
        denom = _exact_denominator(centroids, capacity)
        # Distance numerators are bounded by dim * denom**2; staying far
        # below 2**53 guarantees every partial sum is exact.
        if denom is not None and dim * denom * denom < (1 << 52):
            dists = points @ centroids.T
            dists *= -2.0
            dists += np.einsum("ij,ij->i", points, points)[:, None]
            dists += np.einsum("ij,ij->i", centroids, centroids)
            return dists, denom
    k = centroids.shape[0]
    dists = np.empty((n, k), dtype=np.float64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, k * max(1, dim)))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        dists[start : start + chunk] = (
            (block[:, None, :] - centroids[None, :, :]) ** 2
        ).sum(axis=2)
    return dists, None


def kmeans_plusplus_init(
    points: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids across the data."""
    n = points.shape[0]
    if num_clusters <= 0 or num_clusters > n:
        raise ValueError("num_clusters must be in [1, n_points]")
    points = np.asarray(points)
    # Candidate centroids are raw data rows, so on binary inputs every
    # squared distance is a Hamming distance, an exact integer however it
    # is summed: a popcount over the rows packed into uint64 words gives the
    # seed broadcast's values (and so its sums, probabilities and RNG
    # draws) at a fraction of a float pass per centroid.  The words are
    # stored transposed, one word of every row per line, so the per-row
    # popcount sums reduce over whole contiguous lines.
    binary = _is_binary(points)
    if binary:
        words = np.ascontiguousarray(_pack_rows(points != 0).T)

    def _sq_dists_to(c: int, row: int) -> np.ndarray:
        if binary:
            return np.bitwise_count(words ^ words[:, row, None]).sum(axis=0)
        return np.sum((points - centroids[c]) ** 2, axis=1)

    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = _sq_dists_to(0, first)
    for c in range(1, num_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centroids[c] = points[idx]
        closest = np.minimum(closest, _sq_dists_to(c, idx))
    return centroids


def _occurrence_rank(keys: np.ndarray) -> np.ndarray:
    """Per-element occurrence index among equal keys, in array order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.empty(keys.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, keys.size))
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.arange(keys.size, dtype=np.int64) - np.repeat(starts, counts)
    return ranks


def _assign_in_order(order: np.ndarray, n: int, k: int, capacity: int) -> np.ndarray:
    """Replay the sequential greedy over sorted pairs in vectorized rounds.

    Equivalence to the one-pair-at-a-time loop: within a filtered chunk
    (unassigned rows, clusters with spare capacity), a pair is rejected by
    the sequential greedy only if its row was claimed by an earlier chunk
    pair or its cluster's capacity was exhausted by earlier chunk pairs.
    Duplicate-row pairs never consume capacity, so up to the first *capacity*
    rejection every non-duplicate pair is accepted and every duplicate's row
    is provably already assigned — the whole prefix can be committed at
    once.  The rejected pair itself targets a now-full cluster, so it is
    dead; the tail is refiltered and replayed.
    """
    assign = np.full(n, -1, dtype=np.int64)
    remaining = np.full(k, capacity, dtype=np.int64)
    assigned = 0
    chunk = max(4096, 4 * n)
    for start in range(0, order.size, chunk):
        rows, clusters = np.divmod(order[start : start + chunk], k)
        live = (assign[rows] == -1) & (remaining[clusters] > 0)
        rows = rows[live]
        clusters = clusters[live]
        while rows.size:
            first = _occurrence_rank(rows) == 0
            candidates = np.flatnonzero(first)
            candidate_clusters = clusters[candidates]
            ranks = _occurrence_rank(candidate_clusters)
            rejected = np.flatnonzero(ranks >= remaining[candidate_clusters])
            if rejected.size:
                cut = rejected[0]
                accepted = candidates[:cut]
                resume = candidates[cut] + 1
            else:
                accepted = candidates
                resume = rows.size
            if accepted.size:
                assign[rows[accepted]] = clusters[accepted]
                remaining -= np.bincount(clusters[accepted], minlength=k)
                assigned += accepted.size
                if assigned == n:
                    return assign
            rows = rows[resume:]
            clusters = clusters[resume:]
            if rows.size:
                live = (assign[rows] == -1) & (remaining[clusters] > 0)
                rows = rows[live]
                clusters = clusters[live]
    return assign


def _pair_order(dists: np.ndarray, denom: int | None, dim: int) -> np.ndarray:
    """Flat ``(row, cluster)`` pair indices by ascending distance, ties by
    index: exactly ``np.argsort(dists, axis=None, kind="stable")``.

    When every distance is a proven integer multiple of ``1 / D**2`` (``denom``
    is ``D``; numerators are at most ``dim * D**2``), each pair gets the
    unique int64 key ``(d * D**2) * (n * k) + index``.  Distinct keys leave
    nothing for a stable sort to decide, so numpy's default sort orders them
    in place and the remainder recovers the index.  The keys are built in
    ``dists``' own buffer, which this consumes.
    """
    n, k = dists.shape
    pairs = n * k
    if denom is None or (dim * denom * denom + 1) * pairs >= 1 << 63:
        return np.argsort(dists, axis=None, kind="stable")
    flat = dists.reshape(-1)
    keys = flat.view(np.int64)
    np.multiply(flat, float(denom * denom), out=keys, casting="unsafe")
    keys *= pairs
    grid = keys.reshape(n, k)
    grid += np.arange(0, pairs, k, dtype=np.int64)[:, None]
    grid += np.arange(k, dtype=np.int64)
    keys.sort()
    keys %= pairs
    return keys


def _greedy_assignment(
    points: np.ndarray, centroids: np.ndarray, capacity: int, binary: bool
) -> np.ndarray:
    """One Lloyd step's greedy capacity-constrained assignment, with the
    binarity of ``points`` decided by the caller."""
    dists, denom = _pairwise_sq_dists(points, centroids, capacity, binary)
    n, k = dists.shape
    return _assign_in_order(_pair_order(dists, denom, points.shape[1]), n, k, capacity)


def _balanced_assignment(
    points: np.ndarray, centroids: np.ndarray, capacity: int
) -> np.ndarray:
    """Greedy capacity-constrained assignment.

    Returns an array ``assign`` with ``assign[i]`` the cluster of row ``i``;
    every cluster receives exactly ``capacity`` rows.  Bitwise identical to
    :func:`repro.core.reference.balanced_assignment_loop`, whose call
    surface it shares; :func:`balanced_kmeans` calls
    :func:`_greedy_assignment` directly so it scans ``points`` for binarity
    once per search rather than once per Lloyd step.
    """
    return _greedy_assignment(points, centroids, capacity, _is_binary(points))


def _balanced_centroids(
    points: np.ndarray, assign: np.ndarray, num_clusters: int, group_size: int
) -> np.ndarray:
    """Mean of each cluster's rows, all clusters at once.

    The balanced assignment fills every cluster with exactly ``group_size``
    rows, so a stable sort by cluster id reshapes straight into
    ``(k, V, K)``; the mean over the middle axis reduces each cluster's rows
    in the same order (ascending row index) and with the same reduction as
    the seed's per-cluster ``points[assign == c].mean(axis=0)``.
    """
    order = np.argsort(assign, kind="stable")
    return points[order].reshape(num_clusters, group_size, -1).mean(axis=1)


def balanced_kmeans(
    points: np.ndarray,
    group_size: int,
    *,
    num_iters: int = 10,
    seed: int = 0,
) -> list[np.ndarray]:
    """Cluster ``points`` (rows) into groups of exactly ``group_size``.

    Parameters
    ----------
    points:
        ``(M, K)`` array; for the pattern search this is the binary mask from
        the reduced-sparsity unstructured pruning step.
    group_size:
        Required rows per group (the vector size ``V``); ``M`` must be a
        multiple of it.
    num_iters:
        Lloyd iterations (each with a balanced assignment).
    seed:
        Seed for the k-means++ initialisation.

    Returns
    -------
    list of arrays
        ``M / group_size`` arrays of row indices, each of length
        ``group_size``, sorted within each group; groups are ordered by their
        smallest member so the output is deterministic.
    """
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
    centroids = kmeans_plusplus_init(points, num_clusters, rng)
    binary = _is_binary(points)
    assign = _greedy_assignment(points, centroids, group_size, binary)
    for _ in range(max(0, num_iters - 1)):
        centroids = _balanced_centroids(points, assign, num_clusters, group_size)
        new_assign = _greedy_assignment(points, centroids, group_size, binary)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    order = np.argsort(assign, kind="stable")
    groups = [
        order[c * group_size : (c + 1) * group_size].astype(np.int64)
        for c in range(num_clusters)
    ]
    groups.sort(key=lambda g: int(g[0]))
    return groups
