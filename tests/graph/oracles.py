"""The per-line text readers, the two-key-sort CSR builders and the
per-component BFS labeling that ``repro.graph`` replaced, kept as test
oracles.

The bodies are the replaced code, unchanged but for their names (each
ends in ``_oracle`` and calls the other oracles): one Python iteration
per input line, per component and per BFS level, and ``np.lexsort``
pairs with ``np.add.at`` counts.  The reader corpus and the component
property tests hold the vectorised code to them array for array.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import SignedGraph
from repro.util.arrays import csr_positions

PathLike = Union[str, Path]


_DEDUP_MODES = ("product", "first", "last", "sum")


def from_arrays_oracle(
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

    # Sort by (lo, hi) so duplicates are adjacent, then reduce each run.
    order = np.lexsort((hi, lo))
    lo, hi, s = lo[order], hi[order], s[order]
    if len(lo):
        new_run = np.empty(len(lo), dtype=bool)
        new_run[0] = True
        new_run[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        run_id = np.cumsum(new_run) - 1
        num_runs = int(run_id[-1] + 1)
        lo_u = lo[new_run]
        hi_u = hi[new_run]
        if dedup == "first":
            s_u = s[new_run]
        elif dedup == "last":
            last = np.empty(len(lo), dtype=bool)
            last[:-1] = new_run[1:]
            last[-1] = True
            s_u = s[last]
        else:  # product or sum
            acc = np.zeros(num_runs, dtype=np.int64)
            if dedup == "product":
                neg = np.zeros(num_runs, dtype=np.int64)
                np.add.at(neg, run_id, (s == -1).astype(np.int64))
                s_u = np.where(neg % 2 == 1, -1, 1).astype(np.int8)
            else:  # sum: sign of the summed sentiment, ties -> positive
                np.add.at(acc, run_id, s.astype(np.int64))
                s_u = np.where(acc < 0, -1, 1).astype(np.int8)
    else:
        lo_u = lo
        hi_u = hi
        s_u = s

    return csr_from_undirected_oracle(n, lo_u, hi_u, s_u.astype(np.int8))


def csr_from_undirected_oracle(
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

    # Sort half-edges by (src, dst) to get neighbor-sorted CSR rows.
    order = np.lexsort((dst, src))
    src, dst, eid = src[order], dst[order], eid[order]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)

    return SignedGraph(
        indptr=indptr,
        adj_vertex=dst.astype(np.int64),
        adj_edge=eid,
        edge_u=eu,
        edge_v=ev,
        edge_sign=esign,
    )


def _open(path, mode: str):
    if isinstance(path, (str, Path)):
        return open(path, mode, encoding="utf-8"), True
    return path, False


def read_edgelist_oracle(
    path: PathLike | _io.TextIOBase,
    rating_threshold: float | None = None,
    dedup: str = "product",
) -> SignedGraph:
    """Parse a SNAP-style signed edge list.

    Parameters
    ----------
    path:
        File path or open text handle.
    rating_threshold:
        If given, the third column is treated as a rating and mapped to
        ``+1`` when ``rating >= threshold`` else ``-1`` (the Amazon
        datasets use ratings 1–5 with threshold 3 in the graphB
        pipeline).  If ``None`` the column must already be a sign.
    dedup:
        Duplicate-edge policy, forwarded to the builder.
    """
    close = False
    if isinstance(path, (str, Path)):
        fh = open(path, "r", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        us, vs, ss = [], [], []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise GraphFormatError(
                    f"line {lineno}: expected 'u v sign', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
            us.append(u)
            vs.append(v)
            ss.append(w)
    finally:
        if close:
            fh.close()

    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ss, dtype=np.float64)
    if rating_threshold is not None:
        w = np.where(w >= rating_threshold, 1.0, -1.0)
    return from_arrays_oracle(u, v, w, dedup=dedup)


def read_matrix_market_oracle(
    path: PathLike | _io.TextIOBase, dedup: str = "product"
) -> SignedGraph:
    """Read a symmetric coordinate Matrix Market file as a signed graph.

    Off-diagonal entries become edges whose sign is the sign of the
    stored value (``pattern`` files are all-positive).  Diagonal
    entries (self loops) are ignored, matching the paper's inputs.
    """
    fh, close = _open(path, "r")
    try:
        header = fh.readline().strip().lower()
        if not header.startswith("%%matrixmarket"):
            raise GraphFormatError("missing MatrixMarket header")
        parts = header.split()
        if len(parts) < 5 or parts[1] != "matrix" or parts[2] != "coordinate":
            raise GraphFormatError(f"unsupported MatrixMarket header: {header!r}")
        field, symmetry = parts[3], parts[4]
        if field not in ("real", "integer", "pattern"):
            raise GraphFormatError(f"unsupported field type {field!r}")
        if symmetry not in ("symmetric", "general"):
            raise GraphFormatError(f"unsupported symmetry {symmetry!r}")

        # Skip comments, read the size line.
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        dims = line.split()
        if len(dims) < 3:
            raise GraphFormatError(f"bad size line: {line!r}")
        rows, cols, _nnz = int(dims[0]), int(dims[1]), int(dims[2])
        if rows != cols:
            raise GraphFormatError("adjacency matrices must be square")

        us, vs, ws = [], [], []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            toks = line.split()
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
            if i == j:
                continue  # self loop: ignored
            w = 1.0 if field == "pattern" else float(toks[2])
            if w == 0.0:
                continue
            us.append(i)
            vs.append(j)
            ws.append(w)
    finally:
        if close:
            fh.close()

    return from_arrays_oracle(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws),
        num_vertices=rows,
        dedup=dedup,
    )


def read_konect_oracle(
    path: PathLike | _io.TextIOBase, dedup: str = "sum"
) -> SignedGraph:
    """Read a KONECT-style TSV (1-based ids, optional weight column).

    Rows without a weight default to +1; extra columns (timestamps) are
    ignored.  Duplicate votes are resolved by summed sentiment, the
    convention KONECT's signed networks use.
    """
    fh, close = _open(path, "r")
    try:
        us, vs, ws = [], [], []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(("%", "#")):
                continue
            toks = line.split()
            if len(toks) < 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v [w]'")
            try:
                u, v = int(toks[0]) - 1, int(toks[1]) - 1
                w = float(toks[2]) if len(toks) >= 3 else 1.0
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
            if u == v or w == 0.0:
                continue
            us.append(u)
            vs.append(v)
            ws.append(w)
    finally:
        if close:
            fh.close()
    if us and (min(min(us), min(vs)) < 0):
        raise GraphFormatError("KONECT ids must be 1-based")
    return from_arrays_oracle(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws),
        dedup=dedup,
    )


def connected_components_oracle(graph: SignedGraph) -> np.ndarray:
    """Label each vertex with its component id (0-based, dense).

    Component ids are assigned in order of the smallest vertex they
    contain, so the labeling is deterministic.
    """
    n = graph.num_vertices
    label = np.full(n, -1, dtype=np.int64)
    comp = 0
    # Outer loop over seed vertices; inner loop is a vectorized
    # frontier expansion, so total cost is O(n + m) with tiny constants.
    for seed in range(n):
        if label[seed] != -1:
            continue
        label[seed] = comp
        frontier = np.array([seed], dtype=np.int64)
        while len(frontier):
            # Gather all neighbors of the frontier in one shot.
            offsets = csr_positions(graph.indptr, frontier)
            if len(offsets) == 0:
                break
            nbrs = graph.adj_vertex[offsets]
            fresh = nbrs[label[nbrs] == -1]
            if len(fresh) == 0:
                break
            fresh = np.unique(fresh)
            label[fresh] = comp
            frontier = fresh
        comp += 1
    return label


def largest_connected_component_oracle(
    graph: SignedGraph,
) -> Tuple[SignedGraph, np.ndarray]:
    """Extract the largest connected component as its own graph.

    Returns ``(subgraph, old_ids)`` where ``old_ids[i]`` is the original
    vertex id of the subgraph's vertex ``i``.  Ties between equally
    large components go to the one containing the smallest vertex id.
    """
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    label = connected_components_oracle(graph)
    sizes = np.bincount(label)
    target = int(sizes.argmax())
    keep = np.nonzero(label == target)[0]
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))

    mask = (label[graph.edge_u] == target) & (label[graph.edge_v] == target)
    eu = remap[graph.edge_u[mask]]
    ev = remap[graph.edge_v[mask]]
    es = graph.edge_sign[mask]
    # Canonical orientation may flip after remapping.
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    sub = csr_from_undirected_oracle(len(keep), lo[order], hi[order], es[order])
    return sub, keep
