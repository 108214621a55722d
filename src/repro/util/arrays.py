"""Vectorized array helpers shared by the frontier-style kernels.

These implement the "gather all edges of a vertex set in one shot"
pattern that replaces per-vertex Python loops everywhere a CUDA kernel
would map threads to vertices.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["concat_ranges", "csr_positions", "gather_adjacency"]


def concat_ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(c)`` for every ``c`` in *counts*.

    Handles zero counts: ``concat_ranges([2, 0, 3])`` is
    ``[0, 1, 0, 1, 2]``.  ``repeat(starts, counts) +
    concat_ranges(counts)`` is the plain form of a CSR gather, the
    reference :func:`csr_positions` is tested against.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Offsets where each non-empty run starts in the output.
    nonzero = counts > 0
    run_counts = counts[nonzero]
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    ends = np.cumsum(run_counts)[:-1]
    out[ends] = 1 - run_counts[:-1]
    return np.cumsum(out)


def csr_positions(indptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(indptr[v], indptr[v + 1])`` for every ``v``
    in *vertices* (any order, repeats and zero-degree rows allowed):
    the half-edge positions of a vertex set, row by row.

    Output slot ``k`` of row ``r`` holds ``k + (ends[r] − bounds[r])``,
    where ``bounds`` is the running row-length sum, so one ``arange``
    plus one repeated per-row shift builds every row at once — the
    row starts need no ``concat_ranges`` pass of their own.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = indptr[vertices]
    ends = indptr[vertices + 1]
    counts = ends - starts
    bounds = counts.cumsum()
    if len(bounds) == 0:
        return np.empty(0, dtype=np.int64)
    positions = np.arange(int(bounds[-1]), dtype=np.int64)
    positions += np.repeat(ends - bounds, counts)
    return positions


def gather_adjacency(
    indptr: np.ndarray,
    vertices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the half-edge positions of a vertex set.

    Returns ``(positions, sources)`` where ``positions`` indexes into
    the CSR adjacency arrays (:func:`csr_positions`) and ``sources``
    repeats each vertex once per incident half-edge.  Callers that
    only need the positions call :func:`csr_positions` directly.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    counts = indptr[vertices + 1] - indptr[vertices]
    return csr_positions(indptr, vertices), np.repeat(vertices, counts)
