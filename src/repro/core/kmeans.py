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
compare against.  Binarity is decided once per search: 0/1 points are kept
as ``bool`` rows, and no float copy of them is made whole.  Six techniques
replace the loops, sorts and broadcasts without changing a single output
bit; beyond the rows, the working memory is one int64 key per ``(row,
cluster)`` pair, one gather of the ``bool`` rows per centroid update and
fixed-size blocks:

* **Packed-bit k-means++** — on binary points every seeding distance is a
  Hamming distance, an exact integer: a popcount (``np.bitwise_count``) over
  the rows packed into uint64 words yields the seed's distances, and so its
  sampling probabilities and RNG draws, without a float pass over the
  ``(n, K)`` matrix per centroid.  Those are also the first Lloyd step's
  distances (``D = 1`` below), so seeding writes their pair keys as it goes
  and that step runs no GEMM.
* **Exact integer distances** — on the pattern search's actual inputs
  (binary rows, power-of-two group sizes) every centroid is ``j / D`` with
  ``j`` an integer in ``[0, D]``: raw rows (``D = 1``, the k-means++ seeds)
  or means of ``V = 2^t`` rows (``D = V``).  Then ``D^2 |x - c|^2 =
  D^2 |x|^2 - 2 D x.(c D) + |c D|^2`` is an integer, and the seed's float64
  ``((x - c) ** 2).sum()`` is exactly that integer over ``D^2`` (every
  partial sum is a multiple of ``1 / D^2`` below 2^52).  The dot products
  come from a float32 GEMM of the 0/1 rows against the numerators ``c D``,
  one block of rows converted at a time: its partial sums are integers at
  most ``K D``, exact up to 2^24 in any order and any blocking (float64
  past that); ``|x|^2`` is a popcount.
* **Integer-keyed pair order** — the greedy's visiting order (the stable
  argsort of all ``n * k`` distances) is the plain sort of the unique int64
  keys ``(d D^2) << B | (row * k + c)``, built from those integers with
  int64 arithmetic in one buffer (each row block finished in place), sorted
  in place and decoded with a mask.
* **Exact centroid counts** — a Lloyd update gathers each cluster's
  ``bool`` rows and counts them: the seed's float64 mean of 0/1 values is
  that exact count divided once by ``V``, so ``count / V`` has its bits.
* **Chunked broadcasting** — for inputs outside that regime (non-binary
  points, non-dyadic centroids, keys that would overflow int64) the seed
  expression is evaluated verbatim over row blocks: elementwise ops and a
  last-axis reduction are independent of the leading batch dimension, so
  the result is bitwise identical while the ``(n, k, K)`` intermediate never
  materialises; those distances are ordered by the stable float argsort.
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

#: Elements per row block of a distance intermediate: the broadcast
#: fallback's ``(rows, k, K)`` float64 block (8 MiB, instead of the seed's
#: full ``(n, k, K)``) and the key GEMM's ``(rows, K)`` operand block.
_CHUNK_ELEMENTS = 1 << 20


def _as_rows(points: np.ndarray) -> np.ndarray:
    """``points`` as ``bool`` rows when every entry is 0 or 1, else float64.

    This is where binarity is decided: the exact integer paths key on the
    ``bool`` dtype, and a ``bool`` input is taken as it is, without a scan.
    """
    points = np.asarray(points)
    if points.dtype == bool:
        return points
    points = np.asarray(points, dtype=np.float64)
    binary = np.all((points == 0.0) | (points == 1.0))
    return points != 0 if binary else points


def _exact_denominator(centroids: np.ndarray, capacity: int) -> int | None:
    """A power-of-two ``D`` with ``centroids * D`` integers in ``[0, D]``, if any.

    Multiplying by a power of two only shifts exponents, so the check is
    itself exact: a hit proves every centroid entry is a dyadic rational
    ``j / D`` in ``[0, 1]`` represented without rounding.  Candidates are
    ``1`` (centroids that are raw binary rows, e.g. the k-means++ seeds)
    and the group capacity when it is a power of two (centroids that are
    means of ``capacity`` binary rows).  Returns ``None`` when none fits.
    """
    candidates = [1]
    if capacity > 1 and capacity & (capacity - 1) == 0:
        candidates.append(capacity)
    for denom in candidates:
        scaled = centroids * float(denom)
        if np.all((scaled == np.rint(scaled)) & (scaled >= 0) & (scaled <= denom)):
            return denom
    return None


def _gemm_dtype(dim: int, denom: int) -> type:
    """Float type of the distance GEMM over ``dim`` columns against
    numerators ``c * D`` (``D = denom``, see :func:`_exact_denominator`).

    Every partial sum of a dot product of a 0/1 row with the numerators is
    an integer at most ``dim * D``: float32 holds those exactly up to 2**24,
    float64 past that.
    """
    return np.float32 if dim * denom <= 1 << 24 else np.float64


def _key_bits(n: int, k: int, dim: int, denom: int) -> int | None:
    """Bits ``B`` of the pair index in the keys ``(d * D**2) << B | index``,
    or ``None`` when integer keys are not provably exact.

    The numerators ``d * D**2`` are at most ``dim * D**2``.  Below 2**52 the
    seed's float64 sums are exact, so the integer order is its order; and
    the keys, whose construction passes through ``-2 * D * x.(c * D)`` (up
    to twice that bound) shifted by ``B``, must fit int64.
    """
    bits = (n * k - 1).bit_length()
    bound = dim * denom * denom
    if bound >= 1 << 52 or (2 * bound) << bits >= 1 << 63:
        return None
    return bits


def _pair_keys(rows: np.ndarray, centroids: np.ndarray, denom: int, bits: int) -> np.ndarray:
    """``(n, k)`` int64 keys ``(d * D**2) << bits | (row * k + c)``.

    ``d * D**2 = D**2 |x|**2 - 2 D x.(c D) + |c D|**2`` with ``D = denom``
    (see :func:`_exact_denominator`), every term an exact integer: the dot
    products come from a GEMM of the ``bool`` rows, converted to
    :func:`_gemm_dtype` one block of rows at a time, and ``|x|**2`` is the
    row's popcount.  Each block's scaled dot products are written straight
    into the key buffer, and one per-row and one per-cluster term, each
    already shifted and carrying its half of the pair index, are added in
    place.  Every partial sum is an integer at most ``K * D`` whatever the
    blocking, so the blocks change no key, and no full-size float copy of
    the rows or of the products is made.
    """
    n, dim = rows.shape
    k = centroids.shape[0]
    numerators = centroids * float(denom)
    dtype = _gemm_dtype(dim, denom)
    right = numerators.T.astype(dtype)
    row_terms = (np.count_nonzero(rows, axis=1) * (denom * denom)) << bits
    row_terms += np.arange(0, n * k, k)
    whole = numerators.astype(np.int64)
    cluster_terms = np.einsum("ij,ij->i", whole, whole) << bits
    cluster_terms += np.arange(k)
    keys = np.empty((n, k), dtype=np.int64)
    step = max(1, _CHUNK_ELEMENTS // max(1, dim))
    for start in range(0, n, step):
        block = keys[start : start + step]
        block[...] = rows[start : start + step].astype(dtype) @ right
        block *= -(2 * denom) << bits
        block += row_terms[start : start + step, None]
        block += cluster_terms
    return keys


def _broadcast_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared distances by the seed expression, over row chunks.

    Elementwise arithmetic and the last-axis pairwise sum do not depend on
    the leading dimension, so every chunk is bitwise the seed's full
    ``(n, k, K)`` broadcast restricted to its rows; ``bool`` rows promote to
    the same 0.0/1.0.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    dists = np.empty((n, k), dtype=np.float64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, k * max(1, dim)))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        dists[start : start + chunk] = (
            (block[:, None, :] - centroids[None, :, :]) ** 2
        ).sum(axis=2)
    return dists


def kmeans_plusplus_init(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    *,
    keys: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids across the data.

    ``keys``, if given, is a ``(num_clusters, n)`` int64 buffer for binary
    points.  Seeding measures every row's distance ``d`` to each seed ``c``
    anyway, and it writes the pair keys ``(d << B) | (row * k + c)`` with
    ``B = _key_bits(n, k, K, 1)`` into row ``c``.  Those are the first Lloyd
    step's keys (:func:`_pair_keys` at ``D = 1``), which
    :func:`balanced_kmeans` then sorts instead of recomputing them with a
    GEMM.  The centroids and the RNG draws do not depend on ``keys``.
    """
    n = points.shape[0]
    if num_clusters <= 0 or num_clusters > n:
        raise ValueError("num_clusters must be in [1, n_points]")
    points = _as_rows(points)
    # Candidate centroids are raw data rows, so on binary inputs every
    # squared distance is a Hamming distance, an exact integer however it
    # is summed: a popcount over the rows packed into uint64 words gives the
    # seed broadcast's values (and so its sums, probabilities and RNG
    # draws) at a fraction of a float pass per centroid.  The words are
    # stored transposed, one word of every row per line, so the per-row
    # popcount sums reduce over whole contiguous lines.
    binary = points.dtype == bool
    if binary:
        words = np.ascontiguousarray(_pack_rows(points).T)
    if keys is not None:
        bits = _key_bits(n, num_clusters, points.shape[1], 1)
        if not binary or bits is None:
            raise ValueError("pair keys need binary points whose keys fit int64")
        pair_index = np.arange(0, n * num_clusters, num_clusters)

    def _sq_dists_to(c: int, row: int) -> np.ndarray:
        if not binary:
            return np.sum((points - centroids[c]) ** 2, axis=1)
        dists = np.bitwise_count(words ^ words[:, row, None]).sum(axis=0)
        if keys is not None:
            seed_keys = keys[c]
            seed_keys[...] = dists
            seed_keys <<= bits
            seed_keys += pair_index + c
        return dists

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


def _key_order(keys: np.ndarray, bits: int) -> np.ndarray:
    """The pair indices of unique ``keys`` in ascending key order.

    Nothing is left for a stable sort to decide, so numpy's default sort
    orders the keys in place (their layout does not matter), and a mask of
    the low ``bits`` recovers each pair's index.
    """
    keys = keys.reshape(-1)
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


def _pair_order(points: np.ndarray, centroids: np.ndarray, capacity: int) -> np.ndarray:
    """Flat ``(row, cluster)`` pair indices by ascending squared distance,
    ties by index: exactly the seed's ``np.argsort(dists, axis=None,
    kind="stable")``.

    ``points`` are :func:`_as_rows` rows.  Binary rows against dyadic
    centroids are ordered by their unique integer keys (:func:`_pair_keys`,
    :func:`_key_order`).  Everything else takes the broadcast distances and
    the stable float argsort.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    denom = _exact_denominator(centroids, capacity) if points.dtype == bool else None
    bits = None if denom is None else _key_bits(n, k, dim, denom)
    if bits is None:
        dists = _broadcast_sq_dists(points, centroids)
        return np.argsort(dists, axis=None, kind="stable")
    return _key_order(_pair_keys(points, centroids, denom, bits), bits)


def _balanced_assignment(
    points: np.ndarray, centroids: np.ndarray, capacity: int
) -> np.ndarray:
    """Greedy capacity-constrained assignment.

    Returns an array ``assign`` with ``assign[i]`` the cluster of row ``i``;
    every cluster receives exactly ``capacity`` rows.  Bitwise identical to
    :func:`repro.core.reference.balanced_assignment_loop`, whose call
    surface it shares.  ``bool`` rows are taken as they are, so
    :func:`balanced_kmeans` decides binarity once per search.
    """
    order = _pair_order(_as_rows(points), centroids, capacity)
    return _assign_in_order(order, points.shape[0], centroids.shape[0], capacity)


def _balanced_centroids(
    points: np.ndarray, assign: np.ndarray, num_clusters: int, group_size: int
) -> np.ndarray:
    """Mean of each cluster's rows, all clusters at once.

    The balanced assignment fills every cluster with exactly ``group_size``
    rows, so a stable sort by cluster id reshapes straight into
    ``(k, V, K)``; the mean over the middle axis reduces each cluster's rows
    in the same order (ascending row index) and with the same reduction as
    the seed's per-cluster ``points[assign == c].mean(axis=0)``.  On
    ``bool`` rows that float64 mean is an exact count of ones divided once
    by ``V``, so the counts over ``V`` carry its bits.
    """
    order = np.argsort(assign, kind="stable")
    members = points[order].reshape(num_clusters, group_size, -1)
    if members.dtype == bool:
        return np.count_nonzero(members, axis=1) / group_size
    return members.mean(axis=1)


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
        ``(M, K)`` array; for the pattern search this is the ``bool`` mask
        from the reduced-sparsity unstructured pruning step.  Float points
        whose entries are all 0 or 1 are clustered as that mask would be.
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
    points = _as_rows(points)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    m = points.shape[0]
    if group_size <= 0 or m % group_size:
        raise ValueError(f"M={m} must be a positive multiple of group_size={group_size}")
    num_clusters = m // group_size
    if num_clusters == 1:
        return [np.arange(m, dtype=np.int64)]

    rng = np.random.default_rng(seed)
    bits = _key_bits(m, num_clusters, points.shape[1], 1) if points.dtype == bool else None
    if bits is None:
        centroids = kmeans_plusplus_init(points, num_clusters, rng)
        assign = _balanced_assignment(points, centroids, group_size)
    else:
        # The seeds are raw binary rows (D = 1), and seeding measures every
        # row's distance to each of them: it writes the first step's keys.
        keys = np.empty((num_clusters, m), dtype=np.int64)
        centroids = kmeans_plusplus_init(points, num_clusters, rng, keys=keys)
        assign = _assign_in_order(_key_order(keys, bits), m, num_clusters, group_size)
        del keys  # free the buffer before the next step builds its own
    for _ in range(max(0, num_iters - 1)):
        centroids = _balanced_centroids(points, assign, num_clusters, group_size)
        new_assign = _balanced_assignment(points, centroids, group_size)
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
