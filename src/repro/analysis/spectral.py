"""Spectral clustering — the comparator of Figs. 4–5.

The paper contrasts graph-balancing attributes with spectral clustering
on the wiki-Elec network and shows the spectral clusters track
*adjacency* (who interacts with whom) rather than *sentiment*, so they
carry little information about election outcomes.  This module provides
that comparator: normalized-Laplacian spectral embedding (on the
unsigned adjacency, as standard spectral clustering uses) plus k-means,
and a signed-Laplacian variant for completeness.

SciPy is imported inside the functions that use it, so importing
:mod:`repro` (which re-exports this module) loads no SciPy: about 30 MB
of resident memory that campaigns, the CLI, the serve daemon and pool
workers never need unless they run a spectral analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.graph.csr import SignedGraph
from repro.rng import SeedLike, as_generator

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["spectral_embedding", "spectral_clusters", "cluster_outcome_table"]


def _adjacency(graph: SignedGraph, signed: bool) -> sp.csr_matrix:
    import scipy.sparse as sp

    n = graph.num_vertices
    data = graph.edge_sign.astype(np.float64) if signed else np.ones(
        graph.num_edges
    )
    rows = np.concatenate([graph.edge_u, graph.edge_v])
    cols = np.concatenate([graph.edge_v, graph.edge_u])
    vals = np.concatenate([data, data])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def spectral_embedding(
    graph: SignedGraph,
    dim: int = 10,
    signed: bool = False,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Rows of the ``dim`` smallest-eigenvalue Laplacian eigenvectors.

    ``signed=False`` uses the standard unsigned normalized Laplacian
    (what "spectral clustering" means in the paper's comparison);
    ``signed=True`` uses the signed Laplacian ``D − A_signed``, whose
    small eigenvectors encode near-balanced splits.
    """
    n = graph.num_vertices
    if dim >= n:
        raise ReproError(f"embedding dim {dim} must be < n = {n}")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    adj = _adjacency(graph, signed=signed)
    deg = np.abs(adj).sum(axis=1).A.ravel()
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    d_mat = sp.diags(d_inv_sqrt)
    lap = sp.identity(n) - d_mat @ adj @ d_mat
    # Shift-invert around 0 is fragile on singular L; use smallest
    # algebraic with a modest tolerance instead.
    rng = as_generator(seed)
    v0 = rng.random(n)
    vals, vecs = spla.eigsh(lap, k=dim, which="SA", v0=v0, tol=1e-6)
    order = np.argsort(vals)
    return vecs[:, order]


def spectral_clusters(
    graph: SignedGraph,
    k: int = 10,
    dim: int | None = None,
    signed: bool = False,
    seed: SeedLike = 0,
) -> np.ndarray:
    """K-means labels over the spectral embedding (k clusters)."""
    from scipy.cluster.vq import kmeans2

    dim = k if dim is None else dim
    emb = spectral_embedding(graph, dim=dim, signed=signed, seed=seed)
    # Row-normalize (Ng–Jordan–Weiss) for stability.
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.maximum(norms, 1e-12)
    rng = as_generator(seed)
    _centers, labels = kmeans2(emb, k, minit="++", seed=rng)
    return labels


def cluster_outcome_table(
    labels: np.ndarray, outcome: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Per-cluster (wins, losses) counts — the Fig. 4(b) makeup chart.

    ``outcome`` is +1 (won) / −1 (lost) / 0 (not a candidate); *mask*
    optionally restricts to candidate vertices.
    """
    labels = np.asarray(labels)
    outcome = np.asarray(outcome)
    if mask is not None:
        labels = labels[mask]
        outcome = outcome[mask]
    k = int(labels.max() + 1) if len(labels) else 0
    table = np.zeros((k, 2), dtype=np.int64)
    for c in range(k):
        members = labels == c
        table[c, 0] = int(np.count_nonzero(outcome[members] > 0))
        table[c, 1] = int(np.count_nonzero(outcome[members] < 0))
    return table
