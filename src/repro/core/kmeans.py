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
as ``bool`` rows, and no float copy of them is made whole.  Five techniques
replace the loops, sorts and broadcasts without changing a single output
bit.  Beyond the rows, balanced k-means on binary rows holds one ``(n, k)``
matrix, the k-means++ seeds' int16 distances, which the first assignment
reads; every later Lloyd step measures its distances one block of rows at a
time and keeps two numbers per row, its best cluster and that distance.  The
rest is one int64 proposal per row and fixed-size blocks:

* **Packed-bit k-means++** — on binary points every seeding distance is a
  Hamming distance, an exact integer: a popcount (``np.bitwise_count``) of
  the rows packed into uint64 words, XORed with the seed's, yields the
  seed's distances, and so its sampling probabilities, without a float pass
  over the ``(n, K)`` matrix per centroid.  The XOR and the popcount run in
  fixed row-block buffers, and each next seed is drawn with
  ``Generator.choice``'s own arithmetic (a cumulative sum searched with one
  ``random()``) minus its validation passes, so the draws and the generator
  state are the seed's.  Those distances are also the first Lloyd step's
  (``D = 1`` below): seeding writes them, as int16 below 2^15 columns,
  straight into the row-major ``(n, k)`` matrix the first assignment reads,
  :data:`_STAGED_SEEDS` seeds' columns at a time, and that step runs no GEMM.
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
  past that); ``|x|^2`` is a popcount.  The numerators are int32 while
  ``2 K D^2 < 2^31``, int64 past that.
* **Exact centroid sums** — a Lloyd update adds each cluster's ``bool``
  rows one group position at a time (:func:`~repro.core.transforms._group_sums`):
  the seed's float64 mean of 0/1 values is that exact count divided once
  by ``V``, so ``count / V`` has its bits.
* **Chunked broadcasting** — for inputs outside that regime (non-binary
  points, non-dyadic centroids) the seed expression is evaluated verbatim
  over row blocks: elementwise ops and a last-axis reduction are
  independent of the leading batch dimension, so the result is bitwise
  identical while the ``(n, k, K)`` intermediate never materialises.
* **Proposal greedy** — the seed visits all ``n * k`` pairs in ascending
  ``(distance, row * k + c)`` order, but its next acceptance is always the
  smallest pair among unassigned rows and open clusters.  So each
  unassigned row only needs its best open cluster, its *proposal*: the
  proposals, sorted by the int64 keys ``(d << B) | (row * k + c)``, are
  accepted a window at a time up to the first capacity overflow, and when
  a cluster fills only the rows that proposed it propose again, equal rows
  sharing one argmin.  No ``n * k`` sort is made, and a Lloyd step stores
  no ``(n, k)`` numerators: one pass over row blocks finds every row's
  first proposal, and a re-proposal recomputes the distance rows of the
  rows that make it (the first assignment gathers them from the seeds'
  matrix).  Float distances, and numerators too wide for such a key, are
  stored and replaced by their dense ranks, which keep their order and
  ties.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .transforms import _group_sums, _pack_rows, _support_ids

__all__ = ["balanced_kmeans", "kmeans_plusplus_init"]

#: Elements per row block of a distance intermediate: the broadcast
#: fallback's ``(rows, k, K)`` float64 block (8 MiB, instead of the seed's
#: full ``(n, k, K)``), the numerator GEMM's ``(rows, K)`` operand block and
#: the rows of distances one re-proposal builds or gathers.
_CHUNK_ELEMENTS = 1 << 20

#: Packed words per row block of a k-means++ seed's XOR and popcount
#: buffers (512 KiB of uint64).
_SEED_WORDS = 1 << 16

#: Seeds whose distances k-means++ stages before writing them into the
#: ``(n, k)`` matrix as one block of columns: one strided column per seed
#: writes slower.
_STAGED_SEEDS = 32

#: Proposals the greedy accepts per window, at most (see
#: :func:`_propose_greedy`).
_WINDOW = 4096


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


def _int_dtype(bound: int) -> type:
    """The narrowest of int16, int32 and int64 whose largest value exceeds
    ``bound``: the largest value itself stays free, for the greedy to mark
    full clusters with."""
    for dtype in (np.int16, np.int32):
        if bound < np.iinfo(dtype).max:
            return dtype
    return np.int64


def _key_bits(n: int, k: int, bound: int) -> int | None:
    """Bits ``B`` of the pair index in the keys ``(d << B) | (row * k + c)``
    of values ``0 <= d <= bound``, or ``None`` when they would not fit int64."""
    bits = (n * k - 1).bit_length()
    return bits if bound << bits < 1 << 63 else None


class _NumeratorBlocks:
    """Exact numerators ``d * D**2`` of the squared distances ``d`` between
    blocks of ``bool`` rows and fixed dyadic centroids.

    ``d * D**2 = D**2 |x|**2 - 2 D x.(c D) + |c D|**2`` with ``D = denom``
    (see :func:`_exact_denominator`), every term an exact integer: the dot
    products come from a GEMM of the block's rows converted to
    :func:`_gemm_dtype`, and ``|x|**2`` is the row's popcount.  The scaled
    dot products are written straight into the output, and one per-row and
    one per-cluster term are added in place.  The output is the narrowest
    integer type that holds every intermediate (``|2 D x.(c D)| <= 2 K
    D**2``).  Every partial sum is an integer at most ``K * D`` whatever the
    blocking, so a block's numerators are the whole matrix's rows, however
    the rows were sliced or gathered.  The centroid operand is converted
    once, for every block.
    """

    def __init__(self, centroids: np.ndarray, denom: int, dim: int) -> None:
        numerators = centroids * float(denom)
        self.denom = denom
        self.gemm = _gemm_dtype(dim, denom)
        self.right = numerators.T.astype(self.gemm)
        self.dtype = _int_dtype(2 * dim * denom * denom)
        whole = numerators.astype(np.int64)
        self.cluster_terms = np.einsum("ij,ij->i", whole, whole).astype(self.dtype)
        #: Rows per block of a pass over all rows.
        self.step = max(1, _CHUNK_ELEMENTS // max(1, dim))

    def __call__(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The ``(len(rows), k)`` numerators of ``rows``, written into ``out``."""
        if out is None:
            out = np.empty((rows.shape[0], self.right.shape[1]), dtype=self.dtype)
        out[...] = rows.astype(self.gemm) @ self.right
        out *= -2 * self.denom
        row_terms = np.count_nonzero(rows, axis=1) * (self.denom * self.denom)
        out += row_terms.astype(self.dtype)[:, None]
        out += self.cluster_terms
        return out


def _numerators(rows: np.ndarray, centroids: np.ndarray, denom: int) -> np.ndarray:
    """``(n, k)`` exact numerators ``d * D**2`` of the squared distances ``d``,
    one :class:`_NumeratorBlocks` block of rows at a time."""
    n, dim = rows.shape
    blocks = _NumeratorBlocks(centroids, denom, dim)
    out = np.empty((n, centroids.shape[0]), dtype=blocks.dtype)
    for start in range(0, n, blocks.step):
        blocks(rows[start : start + blocks.step], out[start : start + blocks.step])
    return out


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


def _sq_distances(
    points: np.ndarray, centroids: np.ndarray, capacity: int
) -> tuple[np.ndarray, int | None]:
    """The ``(n, k)`` squared distances in a form the greedy orders exactly
    as the seed's floats, and a bound on their values.

    ``points`` are :func:`_as_rows` rows.  Binary rows against dyadic
    centroids give the integer :func:`_numerators`, bounded by ``K * D**2``;
    below 2**52 the seed's float64 sums are exact, so their order is its
    order.  Everything else gives the seed's floats
    (:func:`_broadcast_sq_dists`) and no bound.
    """
    denom = _exact_denominator(centroids, capacity) if points.dtype == bool else None
    if denom is not None:
        bound = points.shape[1] * denom * denom
        if bound < 1 << 52:
            return _numerators(points, centroids, denom), bound
    return _broadcast_sq_dists(points, centroids), None


def _seed_distances(
    rows: np.ndarray, num_clusters: int, dists: np.ndarray | None
) -> Callable[[int, int], np.ndarray]:
    """A function giving the squared distances of every row to the ``c``-th
    k-means++ seed, row ``row``.

    Float rows get the seed's broadcast.  On ``bool`` rows those are Hamming
    distances, an integer array that the next :data:`_STAGED_SEEDS` calls
    leave intact.  The rows are packed into uint64 words (:func:`_pack_rows`)
    stored transposed, one word of every row per line, so the per-row
    popcount sums reduce over whole contiguous lines; the XOR and the
    popcount run one block of rows at a time in buffers allocated once.
    ``dists``, if given, is the ``(n, num_clusters)`` matrix whose column
    ``c`` receives seed ``c``'s distances, written a block of staged seeds at
    a time.
    """
    if rows.dtype != bool:
        if dists is not None:
            raise ValueError("seed distances need binary points")
        return lambda c, row: np.sum((rows - rows[row]) ** 2, axis=1)
    n = rows.shape[0]
    words = np.ascontiguousarray(_pack_rows(rows).T)
    block = max(1, min(n, _SEED_WORDS // max(1, words.shape[0])))
    xor = np.empty((words.shape[0], block), dtype=np.uint64)
    ones = np.empty(xor.shape, dtype=np.uint8)
    dtype = _int_dtype(rows.shape[1]) if dists is None else dists.dtype
    staged = np.empty((min(_STAGED_SEEDS, num_clusters), n), dtype=dtype)

    def distances(c: int, row: int) -> np.ndarray:
        slot = c % staged.shape[0]
        out = staged[slot]
        for start in range(0, n, block):
            stop = min(n, start + block)
            part, count = xor[:, : stop - start], ones[:, : stop - start]
            np.bitwise_xor(words[:, start:stop], words[:, row, None], out=part)
            np.bitwise_count(part, out=count)
            np.add.reduce(count, axis=0, dtype=dtype, out=out[start:stop])
        if dists is not None and (slot == staged.shape[0] - 1 or c == num_clusters - 1):
            dists[:, c - slot : c + 1] = staged[: slot + 1].T
        return out

    return distances


def _choice(closest: np.ndarray, total: np.integer, rng: np.random.Generator) -> int:
    """``int(rng.choice(closest.size, p=closest / total))`` for non-negative
    integer ``closest`` with a positive sum ``total``.

    The same index and the same single ``random()`` draw, by
    ``Generator.choice``'s own arithmetic, without its validation passes:
    such a ``p`` is valid by construction.
    """
    cdf = np.cumsum(closest / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def kmeans_plusplus_init(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    *,
    dists: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids across the data.

    ``dists``, if given, is an ``(n, num_clusters)`` integer buffer for
    binary points, wide enough for their ``K`` columns.  Seeding measures
    every row's distance to each seed ``c`` anyway, and it writes them into
    column ``c``.  Those are the first Lloyd step's distances
    (:func:`_numerators` at ``D = 1``), which :func:`balanced_kmeans` then
    assigns by instead of recomputing them with a GEMM.  The centroids and
    the RNG draws do not depend on ``dists``.
    """
    n = points.shape[0]
    if num_clusters <= 0 or num_clusters > n:
        raise ValueError("num_clusters must be in [1, n_points]")
    points = _as_rows(points)
    # Candidate centroids are raw data rows, so on binary inputs every
    # squared distance is a Hamming distance, an exact integer however it is
    # summed: a popcount gives the seed broadcast's values, and so its sums,
    # probabilities and RNG draws.
    binary = points.dtype == bool
    distances_to = _seed_distances(points, num_clusters, dists)
    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.array(distances_to(0, first))
    for c in range(1, num_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            idx = int(rng.integers(n))
        elif binary:
            idx = _choice(closest, total, rng)
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = points[idx]
        np.minimum(closest, distances_to(c, idx), out=closest)
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


def _twins(rows: np.ndarray) -> np.ndarray:
    """Each ``bool`` row's first equal row (its own index when none comes
    before it): equal rows have equal distances to every centroid."""
    ids = _support_ids(rows)
    return np.unique(ids, return_index=True)[1][ids]


def _propose_greedy(
    first: np.ndarray,
    values: np.ndarray,
    distance_rows: Callable[[np.ndarray], np.ndarray],
    bits: int,
    k: int,
    capacity: int,
    twins: np.ndarray | None = None,
) -> np.ndarray:
    """The seed's capacity-constrained greedy over ``n`` rows and ``k``
    clusters, from each row's best cluster ``first`` and its distance
    ``values``.

    The seed visits every ``(row, cluster)`` pair in ascending ``(d, row *
    k + c)`` order and accepts a pair whose row is unassigned and whose
    cluster has room.  A pair it skips never becomes acceptable (rows stay
    assigned, clusters stay full), so its next acceptance is always the
    smallest pair among unassigned rows and open clusters: the smallest of
    the rows' *proposals*, each row's best open cluster (the first index
    wins ties).

    The proposals, sorted by their keys ``(d << B) | (row * k + c)`` (``B
    = bits``), are accepted :data:`_WINDOW` at a time up to the first
    capacity overflow (:func:`_occurrence_rank`): until a cluster is full,
    every other proposal is still its row's best.  When clusters fill, only
    the rows that proposed them propose again, over the clusters still open,
    and their keys are merged back in order.  A cluster ends a window at
    most once, so there are at most ``k + n / W`` windows.

    ``distance_rows(rows)`` returns a fresh ``(len(rows), k)`` array of the
    rows' distances, whose type's largest value no distance equals: the
    greedy marks the full clusters with it.  It is asked for a block of
    rows at a time.  ``twins`` (:func:`_twins`), if given, names rows with
    equal distance rows, and only the first of each proposes over its
    distance row: many equal rows (empty mask rows, say) would otherwise all
    fetch theirs each time the cluster they propose fills.
    """
    n = first.size
    index_mask = (1 << bits) - 1
    closed = np.zeros(k, dtype=bool)

    def proposal_keys(rows: np.ndarray, clusters: np.ndarray, d: np.ndarray) -> np.ndarray:
        keys = (d.astype(np.int64) << bits) | (rows * k + clusters)
        keys.sort()
        return keys

    def propose(rows: np.ndarray) -> np.ndarray:
        """Sorted keys of ``rows``' best open clusters, one block of whole
        distance rows at a time."""
        firsts, kind = rows, None
        if twins is not None:
            firsts, kind = np.unique(twins[rows], return_inverse=True)
        best = np.empty(firsts.size, dtype=np.int64)
        best_d = np.empty(firsts.size, dtype=np.int64)
        step = max(1, _CHUNK_ELEMENTS // k)
        for start in range(0, firsts.size, step):
            block = distance_rows(firsts[start : start + step])
            block[:, closed] = np.iinfo(block.dtype).max
            chosen = block.argmin(axis=1)
            best[start : start + step] = chosen
            best_d[start : start + step] = block[np.arange(chosen.size), chosen]
        if kind is not None:
            best, best_d = best[kind], best_d[kind]
        return proposal_keys(rows, best, best_d)

    assign = np.full(n, -1, dtype=np.int64)
    remaining = np.full(k, capacity, dtype=np.int64)
    pending = proposal_keys(np.arange(n), first, values)
    while pending.size:
        rows, clusters = np.divmod(pending[:_WINDOW] & index_mask, k)
        overflow = np.flatnonzero(_occurrence_rank(clusters) >= remaining[clusters])
        cut = overflow[0] if overflow.size else clusters.size
        if not cut:  # every proposal names an open cluster, so the first fits
            raise RuntimeError("the smallest proposal names a full cluster")
        assign[rows[:cut]] = clusters[:cut]
        remaining -= np.bincount(clusters[:cut], minlength=k)
        pending = pending[cut:]
        filled = (remaining == 0) & ~closed
        if filled.any():
            closed |= filled
            if closed.all():
                break
            stale = filled[(pending & index_mask) % k]
            if stale.any():
                moved = propose((pending[stale] & index_mask) // k)
                pending = pending[~stale]
                pending = np.insert(pending, np.searchsorted(pending, moved), moved)
    return assign


def _greedy_assignment(
    dists: np.ndarray, bound: int | None, capacity: int, twins: np.ndarray | None = None
) -> np.ndarray:
    """:func:`_propose_greedy` over the stored ``(n, k)`` ``dists``, whose
    rows a re-proposal gathers.

    ``bound`` bounds the integer ``dists``.  Float distances (``None``), or
    integers whose keys would not fit int64, are replaced by their dense
    ranks, which keep their order and their ties.  The largest value of the
    distances' type marks the full clusters, so no distance may equal it.
    """
    n, k = dists.shape
    bits = None if bound is None else _key_bits(n, k, bound)
    if bits is None:
        dists = np.unique(dists, return_inverse=True)[1].reshape(n, k)
        bits = _key_bits(n, k, n * k - 1)
        if bits is None:
            raise ValueError(f"{n} x {k} distance pairs are too many to rank")
    first = dists.argmin(axis=1)
    values = np.take_along_axis(dists, first[:, None], axis=1)[:, 0]
    return _propose_greedy(first, values, lambda rows: dists[rows], bits, k, capacity, twins)


def _assign(
    points: np.ndarray, centroids: np.ndarray, capacity: int, twins: np.ndarray | None = None
) -> np.ndarray:
    """The balanced assignment of the :func:`_as_rows` ``points``.

    Binary rows against dyadic centroids whose keys fit int64 are assigned
    without an ``(n, k)`` matrix: one pass over :class:`_NumeratorBlocks`
    row blocks (slices of the rows) keeps each row's best cluster and its
    numerator, the first proposals, and a re-proposal builds the numerators
    of just its rows.  Everything else is assigned over the stored
    :func:`_sq_distances` (:func:`_greedy_assignment`).
    """
    denom = _exact_denominator(centroids, capacity) if points.dtype == bool else None
    if denom is not None:
        n, dim = points.shape
        k = centroids.shape[0]
        bound = dim * denom * denom
        bits = _key_bits(n, k, bound)
        if bound < 1 << 52 and bits is not None:
            blocks = _NumeratorBlocks(centroids, denom, dim)
            first = np.empty(n, dtype=np.intp)
            values = np.empty(n, dtype=blocks.dtype)
            buffer = np.empty((min(n, blocks.step), k), dtype=blocks.dtype)
            for start in range(0, n, blocks.step):
                stop = min(n, start + blocks.step)
                block = blocks(points[start:stop], buffer[: stop - start])
                best = block.argmin(axis=1, out=first[start:stop])
                values[start:stop] = np.take_along_axis(block, best[:, None], axis=1)[:, 0]
            return _propose_greedy(
                first, values, lambda rows: blocks(points[rows]), bits, k, capacity, twins
            )
    return _greedy_assignment(*_sq_distances(points, centroids, capacity), capacity, twins)


def _balanced_assignment(
    points: np.ndarray, centroids: np.ndarray, capacity: int
) -> np.ndarray:
    """Greedy capacity-constrained assignment.

    Returns an array ``assign`` with ``assign[i]`` the cluster of row ``i``;
    every cluster receives exactly ``capacity`` rows.  Bitwise identical to
    :func:`repro.core.reference.balanced_assignment_loop`, whose call
    surface it shares.  :func:`balanced_kmeans` runs the same
    :func:`_assign` on its Lloyd steps, with the ``twins`` it finds once per
    search.
    """
    return _assign(_as_rows(points), centroids, capacity)


def _balanced_centroids(
    points: np.ndarray, assign: np.ndarray, num_clusters: int, group_size: int
) -> np.ndarray:
    """Mean of each cluster's rows, all clusters at once.

    The balanced assignment fills every cluster with exactly ``group_size``
    rows, so a stable sort by cluster id reshapes into ``(k, V)`` row
    indices, each cluster's in ascending order.  :func:`_group_sums` adds
    them in that order, bit for bit the sum of the seed's per-cluster
    ``points[assign == c].mean(axis=0)``, which numpy divides once by ``V``;
    ``bool`` rows add as exact counts.  No gather of every row is made.
    """
    order = np.argsort(assign, kind="stable")
    return _group_sums(points, order.reshape(num_clusters, group_size)) / group_size


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
    twins = None
    if points.dtype == bool:
        # The seeds are raw binary rows (D = 1), and seeding measures every
        # row's distance to each of them: those are the first step's
        # distances, written straight into the matrix the greedy gathers
        # whole rows of.
        twins = _twins(points)
        dim = points.shape[1]
        dists = np.empty((m, num_clusters), dtype=_int_dtype(dim))
        centroids = kmeans_plusplus_init(points, num_clusters, rng, dists=dists)
        assign = _greedy_assignment(dists, dim, group_size, twins)
        del dists  # the later steps measure their distances a block at a time
    else:
        centroids = kmeans_plusplus_init(points, num_clusters, rng)
        assign = _balanced_assignment(points, centroids, group_size)
    for _ in range(max(0, num_iters - 1)):
        centroids = _balanced_centroids(points, assign, num_clusters, group_size)
        new_assign = _assign(points, centroids, group_size, twins)
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
