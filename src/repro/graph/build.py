"""Builders that turn raw edge input into a validated :class:`SignedGraph`.

The input conventions follow the paper's datasets: an edge list of
``(u, v, sign)`` triples where the sign is any nonzero number whose sign
bit carries the sentiment (ratings are mapped to signs upstream, in
:mod:`repro.graph.datasets`).  Building performs, in order:

1. endpoint validation (non-negative, no self loops),
2. canonicalization ``u < v``,
3. duplicate resolution (sign *product* by default — two conflicting
   reports of the same relationship cancel to "positive/neutral" the way
   repeated sentiment multiplies; ``dedup="first"``/``"last"``/``"sum"``
   are also available),
4. CSR assembly with adjacency lists sorted by neighbor id.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import SignedGraph

__all__ = ["from_edges", "from_arrays", "csr_from_undirected", "pair_key"]

_DEDUP_MODES = ("product", "first", "last", "sum")


def pair_key(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """One int64 per id pair ``(a, b)`` in ``[0, n)``, ordered as the
    pairs are: sorting the keys sorts by ``a``, then ``b``."""
    if n > 3_037_000_499:  # n * n would overflow int64
        raise GraphFormatError(f"{n} vertices is more than int64 pair keys hold")
    return a * n + b


def from_edges(
    edges: Iterable[Sequence[int]] | np.ndarray,
    num_vertices: int | None = None,
    dedup: str = "product",
) -> SignedGraph:
    """Build a :class:`SignedGraph` from an iterable of ``(u, v, sign)``.

    Parameters
    ----------
    edges:
        Iterable of triples, or an ``(m, 3)`` array.  Signs may be any
        nonzero values; only their sign bit is kept.
    num_vertices:
        Total vertex count.  Defaults to ``max endpoint + 1``.
    dedup:
        How to resolve parallel edges; see the module docstring.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GraphFormatError(
            f"edge input must be (m, 3) of (u, v, sign); got shape {arr.shape}"
        )
    return from_arrays(
        arr[:, 0].astype(np.int64),
        arr[:, 1].astype(np.int64),
        arr[:, 2],
        num_vertices=num_vertices,
        dedup=dedup,
    )


def from_arrays(
    u: np.ndarray,
    v: np.ndarray,
    sign: np.ndarray,
    num_vertices: int | None = None,
    dedup: str = "product",
) -> SignedGraph:
    """Vectorized builder from parallel endpoint/sign arrays."""
    if dedup not in _DEDUP_MODES:
        raise GraphFormatError(f"unknown dedup mode {dedup!r}; use one of {_DEDUP_MODES}")
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    sign = np.asarray(sign, dtype=np.float64).ravel()
    if not (len(u) == len(v) == len(sign)):
        raise GraphFormatError("u, v, sign arrays must have equal length")
    if len(u) and (u.min() < 0 or v.min() < 0):
        raise GraphFormatError("vertex ids must be non-negative")
    if np.any(u == v):
        bad = int(u[np.nonzero(u == v)[0][0]])
        raise GraphFormatError(f"self loop at vertex {bad} is not allowed")
    if np.any(sign == 0):
        raise GraphFormatError("edge signs must be nonzero")

    n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphFormatError(
                f"num_vertices={num_vertices} smaller than max endpoint + 1 = {n}"
            )
        n = int(num_vertices)

    # Canonical direction u < v.
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    s = np.sign(sign).astype(np.int8)

    # Sort by (lo, hi) so duplicates are adjacent, then reduce each run;
    # a stable sort keeps each run in input order for first/last.
    key = pair_key(lo, hi, n)
    order = np.argsort(key, kind="stable")
    key, s = key[order], s[order]
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = key[1:] != key[:-1]
    if new_run.all():  # no parallel edges: every policy keeps the one sign
        s_u = s
    elif dedup == "first":
        s_u = s[new_run]
    elif dedup == "last":
        s_u = s[np.append(new_run[1:], True)]
    else:
        run_id = np.cumsum(new_run) - 1
        neg = np.bincount(run_id[s == -1], minlength=run_id[-1] + 1)
        if dedup == "product":
            s_u = np.where(neg % 2 == 1, -1, 1)
        else:  # sum: sign of the summed sentiment, ties -> positive
            s_u = np.where(2 * neg > np.bincount(run_id), -1, 1)
    first = order[new_run]
    return csr_from_undirected(n, lo[first], hi[first], s_u.astype(np.int8))


def csr_from_undirected(
    n: int, eu: np.ndarray, ev: np.ndarray, esign: np.ndarray
) -> SignedGraph:
    """Assemble the CSR arrays from already-deduplicated undirected edges.

    ``eu/ev/esign`` must be canonical (``eu < ev``, no duplicates); this
    is the low-level entry used by builders and by graph surgery such as
    largest-CC extraction.
    """
    m = len(eu)
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    esign = np.asarray(esign, dtype=np.int8)

    # Each undirected edge contributes two directed half-edges.
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    eid = np.concatenate([np.arange(m), np.arange(m)]).astype(np.int64)

    # Sort half-edges by (src, dst) to get neighbor-sorted CSR rows;
    # the keys are unique, so any sort gives this one order.
    order = np.argsort(pair_key(src, dst, n))
    dst, eid = dst[order], eid[order]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    return SignedGraph(
        indptr=indptr,
        adj_vertex=dst.astype(np.int64),
        adj_edge=eid,
        edge_u=eu,
        edge_v=ev,
        edge_sign=esign,
    )
