"""Shared fixtures: the 8-subgraph benchmark model and small helpers."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hsbm_motif as hm
from hsbm_motif import embedding
from hsbm_motif.seeding import derive_rng

B1 = np.array([[0.3, 0.25, 0.25], [0.25, 0.3, 0.25], [0.25, 0.25, 0.7]])
B2 = np.array([[0.4, 0.25, 0.25], [0.25, 0.4, 0.25], [0.25, 0.25, 0.4]])
B3 = np.array([[0.25, 0.2, 0.2], [0.2, 0.8, 0.2], [0.2, 0.2, 0.25]])
BENCH_SIZES = (300, 600, 600, 600, 700, 600, 300, 400)
# which block matrix each of the 8 subgraphs draws from, and hence the
# ground-truth motif of each subgraph
BENCH_ARRANGEMENT = (B1, B2, B3, B1, B3, B3, B2, B1)
BENCH_MOTIFS = np.array([0, 1, 2, 0, 2, 2, 1, 0])
BENCH_CROSS = 0.01


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter that imports this checkout's package."""
    src = str(Path(hm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300)


def single_leaf_spec(block_matrix, n, weights=None, sizes=None, sparsity=1.0):
    b = np.asarray(block_matrix, dtype=np.float64)
    w = np.full(b.shape[0], 1.0 / b.shape[0]) if weights is None else np.asarray(weights)
    leaf = hm.LeafNode(block_matrix=b, weights=w, sizes=sizes)
    return hm.HsbmSpec(tree=leaf, n_vertices=n, sparsity=sparsity)


def brute_misclustering(pred: np.ndarray, truth: np.ndarray, r: int) -> int:
    """Exhaustive search over label permutations (oracle for small r)."""
    best = len(pred)
    for perm in itertools.permutations(range(r)):
        table = np.array(perm)
        best = min(best, int(np.sum(pred != table[truth])))
    return best


def mean_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Plain euclidean silhouette width, averaged over points."""
    from scipy.spatial.distance import pdist, squareform

    d = squareform(pdist(points))
    out = []
    for i in range(len(labels)):
        same = labels == labels[i]
        same[i] = False
        if not same.any():
            return -1.0
        a = d[i][same].mean()
        b = min(d[i][labels == lab].mean() for lab in np.unique(labels) if lab != labels[i])
        out.append((b - a) / max(a, b))
    return float(np.mean(out))


def traced_peak(fn):
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def bench_spec() -> hm.HsbmSpec:
    spec = hm.load_spec(hm.builtin_spec_path("eight_block_three_motif"))
    assert spec.n_vertices == 4100
    return spec


@pytest.fixture(scope="session")
def bench_sample(bench_spec):
    """One benchmark draw shared by the structural tests (seed 0)."""
    graph, latents = hm.sample_hsbm(bench_spec, derive_rng(0, "bench-sample"))
    return graph, latents


@pytest.fixture()
def eigensolve_widths(monkeypatch) -> list[int]:
    """Width of every adjacency eigensolve, dense or sparse, made during the test."""
    widths: list[int] = []
    for name in ("_dense_eigs", "_sparse_eigs"):
        def solver(a, k, _fn=getattr(embedding, name)):
            widths.append(k)
            return _fn(a, k)

        monkeypatch.setattr(embedding, name, solver)
    return widths
