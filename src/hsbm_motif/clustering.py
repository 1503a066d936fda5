"""Seeded nearest-neighbor subspace clustering and subgraph-count estimation.

Points whose latent subspaces are nearly orthogonal form cones around the
origin; centroid-based clustering can merge cones when the mixture is
unbalanced.  The sweep below instead maintains a fixed-size seed set that
provably ends up holding one row per cone whenever cross-cone dot products
stay below the smallest within-cone dot product, after which every row is
assigned to its best-aligned seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import profile_likelihood_elbow
from .graph import VertexPartition, open_text


class ClusterError(ValueError):
    """Raised for invalid clustering requests."""


@dataclass(frozen=True, eq=False)
class SeedSet:
    """Final state of the seed sweep.

    ``vectors`` holds the R seed rows (slot order is stable across the
    sweep: replacement reuses the evicted slot).  ``source_rows`` maps each
    slot to the data row it came from, and ``max_pair_dot`` is the largest
    dot product between two distinct seeds at termination.
    """

    vectors: np.ndarray
    source_rows: np.ndarray
    max_pair_dot: float

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def _seed_sweep(points: np.ndarray, r: int, rng: np.random.Generator):
    """One pass of the seed-replacement sweep; returns (vectors, sources, gram)."""
    n = points.shape[0]
    init = np.sort(rng.choice(n, size=r, replace=False))
    seeds = points[init].copy()
    sources = init.astype(np.int64).copy()
    gram = seeds @ seeds.T
    if r == 1:
        return seeds, sources, gram
    iu = np.triu_indices(r, k=1)
    for i in range(n):
        x = points[i]
        dots = seeds @ x
        pair_dots = gram[iu]
        t = int(np.argmax(pair_dots))  # first maximum: lexicographically smallest pair
        if dots.max() <= pair_dots[t]:
            evict = int(iu[1][t])  # drop the later slot of the maximizing pair
            seeds[evict] = x
            sources[evict] = i
            fresh = seeds @ x
            gram[evict, :] = fresh
            gram[:, evict] = fresh
    return seeds, sources, gram


def _final_pair_dot(gram: np.ndarray) -> float:
    r = gram.shape[0]
    if r < 2:
        return float("nan")
    return float(gram[np.triu_indices(r, k=1)].max())


def seeded_subspace_cluster(
    points: np.ndarray, r: int, rng: np.random.Generator
) -> tuple[VertexPartition, SeedSet]:
    """Cluster rows of ``points`` into ``r`` subspace cones.

    Sweep 1 initializes the seed set with ``r`` distinct rows sampled
    uniformly, then scans every row in order: if the row's best dot product
    against the current seeds does not exceed the largest dot product
    between two seeds, the row replaces the later member of that closest
    seed pair.  The set size never changes.  Sweep 2 assigns every row to
    the seed maximizing the dot product.  All argmax ties break toward the
    lowest index, making the output a deterministic function of
    (row order, r, generator state).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ClusterError("points must be a 2-d array")
    n = pts.shape[0]
    if r < 1 or r > n:
        raise ClusterError(f"cluster count must satisfy 1 <= r <= {n}, got {r}")
    seeds, sources, gram = _seed_sweep(pts, r, rng)
    labels = np.argmax(pts @ seeds.T, axis=1)
    part = VertexPartition(labels=labels, n_clusters=r)
    return part, SeedSet(
        vectors=seeds, source_rows=sources, max_pair_dot=_final_pair_dot(gram)
    )


def misclustering_rate(pred: VertexPartition, truth: VertexPartition) -> int:
    """Minimal number of disagreements over relabelings of the clusters.

    Solved exactly as a maximum-weight assignment on the confusion matrix
    (equivalent to searching all label permutations, without the factorial
    cost).
    """
    if pred.n_vertices != truth.n_vertices:
        raise ClusterError(
            f"partitions cover {pred.n_vertices} and {truth.n_vertices} vertices"
        )
    # imported here: the only scipy.optimize user, and no CLI command needs it
    from scipy.optimize import linear_sum_assignment

    r = max(pred.n_clusters, truth.n_clusters)
    confusion = np.zeros((r, r), dtype=np.int64)
    np.add.at(confusion, (pred.labels, truth.labels), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return int(pred.n_vertices - confusion[rows, cols].sum())


def phi_statistic(points: np.ndarray, k: int, rng: np.random.Generator) -> float:
    """Largest in-set seed dot product after a sweep with ``k`` seeds.

    Small when the data holds at least ``k`` near-orthogonal cones (each
    seed lands in its own cone); large once two seeds are forced to share a
    cone.
    """
    pts = np.asarray(points, dtype=np.float64)
    if k < 2:
        raise ClusterError(f"phi statistic needs k >= 2, got {k}")
    if k > pts.shape[0]:
        raise ClusterError(f"k={k} exceeds the number of rows {pts.shape[0]}")
    _, _, gram = _seed_sweep(pts, k, rng)
    return _final_pair_dot(gram)


@dataclass(frozen=True, eq=False)
class SubgraphCountEstimate:
    """Estimated cone count with the averaged seed-overlap curve behind it."""

    n_subgraphs: int
    k_values: np.ndarray
    phi: np.ndarray


def estimate_num_subgraphs(
    points: np.ndarray,
    d_hat: int,
    n_mc: int,
    rng: np.random.Generator,
) -> SubgraphCountEstimate:
    """Estimate the number of subspace cones among the rows of ``points``.

    For each candidate count k = 2..min(d_hat, rows), the sweep of
    :func:`phi_statistic` runs ``n_mc`` times with independent seeds and the
    results are averaged into a curve phi(k).  The curve stays small while
    k does not exceed the true count and jumps once two seeds must share a
    cone, so the estimate is the largest k before the jump.  The jump is
    located by the same profile-likelihood elbow applied to the curve's
    increments sorted descending: increments classified into the head
    ("large") group mark jumps, and the smallest k owning one is returned.
    Fewer than two rows leave no k to try and are refused.
    """
    if n_mc < 1:
        raise ClusterError(f"n_mc must be >= 1, got {n_mc}")
    if d_hat < 2:
        raise ClusterError(f"d_hat must be >= 2, got {d_hat}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] < 2:
        raise ClusterError(f"the count estimate needs at least two rows, got {pts.shape[0]}")
    d_hat = min(d_hat, pts.shape[0])
    ks = np.arange(2, d_hat + 1)
    sub_seeds = rng.integers(0, 2**63 - 1, size=(len(ks), n_mc))
    phi = np.empty(len(ks))
    for idx, k in enumerate(ks):
        vals = [
            phi_statistic(pts, int(k), np.random.default_rng(int(s)))
            for s in sub_seeds[idx]
        ]
        phi[idx] = float(np.mean(vals))
    if len(ks) == 1:
        warnings.warn("phi curve has a single point; returning k=2")
        return SubgraphCountEstimate(n_subgraphs=2, k_values=ks, phi=phi)
    increments = np.diff(phi)
    order = np.argsort(increments)[::-1]
    n_large = profile_likelihood_elbow(increments[order])
    jump_ks = ks[:-1][order[:n_large]]
    return SubgraphCountEstimate(
        n_subgraphs=int(jump_ks.min()), k_values=ks, phi=phi
    )


def phi_curve_to_csv(est: SubgraphCountEstimate, sink) -> None:
    with open_text(sink, "w") as fh:
        fh.write("k,phi\n")
        for k, value in zip(est.k_values, est.phi):
            fh.write(f"{int(k)},{repr(float(value))}\n")
