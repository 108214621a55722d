"""Reading and writing signed graphs.

Two interchange formats are supported:

* **Signed edge-list text** — the SNAP convention used by the paper's
  inputs (``soc-sign-*``): one ``u v sign`` triple per line, ``#``
  comments.  Signs may be ``+1/-1`` or arbitrary ratings; ratings are
  mapped to signs by the caller-provided threshold.
* **NPZ snapshots** — lossless binary round-trip of the CSR arrays, the
  fast path for benchmark fixtures.
"""

from __future__ import annotations

import io as _io
import re
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_arrays
from repro.graph.csr import SignedGraph

__all__ = [
    "read_edgelist",
    "read_rows",
    "read_text",
    "write_edgelist",
    "save_npz",
    "load_npz",
]

PathLike = Union[str, Path]


def read_text(path: PathLike | _io.TextIOBase) -> str:
    """The whole text of a file path or an open text handle.

    A carriage return left in the text (a handle that does not translate
    newlines) is read as the whitespace it is inside a line."""
    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return path.read().replace("\r", " ")


#: Blank lines and lines whose first non-blank character opens a
#: comment, each with the newline before it (see :func:`read_rows`).
_SKIP = {
    chars: re.compile(rf"\n[^\S\n]*(?:[{chars}][^\n]*)?(?=\n|\Z)")
    for chars in ("#%", "%")
}
_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _rows(text: str, comments: str, columns: int, fill: str):
    body = _SKIP[comments].sub("", "\n" + text)[1:]
    if not body:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    if fill:
        body = body.replace("\n", fill + "\n") + fill
    # Bytes, not a StringIO: that holds the text as UCS-4, twice the peak.
    table = np.loadtxt(_io.BytesIO(body.encode()), dtype=_ROW.descr[:columns],
                       comments=None, usecols=range(columns), ndmin=1,
                       encoding="utf-8")
    w = table["w"] if columns == 3 else np.ones(len(table))
    if np.isnan(w).any():
        raise ValueError("NaN weight")
    return table["u"], table["v"], w


def read_rows(
    text: str,
    expected: str,
    comments: str = "#%",
    columns: int = 3,
    fill: str = "",
    first_line: int = 1,
):
    """Parse the ``u v [w]`` rows of *text* in one NumPy pass: the one
    parse behind every text reader.

    Blank lines and lines that start (after blanks) with one of
    *comments* are skipped; every other line must hold at least
    *columns* whitespace-separated tokens, ids as decimal integers and
    ``w`` as a float.  Extra tokens are ignored.  *fill* is appended to
    every row first, so ``" 1"`` makes a missing ``w`` read as 1.
    Returns ``(u, v, w)`` as int64, int64 and float64 arrays (``w`` is
    all ones when ``columns == 2``).

    A bad line raises :class:`GraphFormatError` naming it (numbered from
    *first_line*); each line parses on its own, so halving the text
    finds the first one.  The per-line readers this replaced took three
    forms through Python's ``int``/``float`` that are now rejected:
    ``_`` digit separators (``1_0``), non-ASCII digits, and ``nan``
    weights (which became a garbage sign, or -1 under a rating
    threshold).  Ids beyond int64, which raised a bare ``OverflowError``
    there, are rejected by line too.
    """
    try:
        return _rows(text, comments, columns, fill)
    except ValueError as exc:
        lines = text.split("\n")
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _rows("\n".join(lines[lo:mid]), comments, columns, fill)
                lo = mid
            except ValueError:
                hi = mid
        raise GraphFormatError(
            f"line {first_line + lo}: expected {expected!r}, "
            f"got {lines[lo].strip()!r}"
        ) from exc


def read_edgelist(
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

    Lines are read by :func:`read_rows` (``#`` and ``%`` comments).
    """
    u, v, w = read_rows(read_text(path), "u v sign")
    if rating_threshold is not None:
        w = np.where(w >= rating_threshold, 1.0, -1.0)
    return from_arrays(u, v, w, dedup=dedup)


def write_edgelist(graph: SignedGraph, path: PathLike) -> None:
    """Write ``u v sign`` lines (canonical direction, +1/−1 signs)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# signed graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        for u, v, s in graph.iter_edges():
            fh.write(f"{u} {v} {s}\n")


def save_npz(graph: SignedGraph, path: PathLike) -> None:
    """Lossless binary snapshot of the CSR arrays."""
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        adj_vertex=graph.adj_vertex,
        adj_edge=graph.adj_edge,
        edge_u=graph.edge_u,
        edge_v=graph.edge_v,
        edge_sign=graph.edge_sign,
    )


def load_npz(path: PathLike) -> SignedGraph:
    """Load a snapshot written by :func:`save_npz`.

    Arrays come back in the canonical CSR dtypes (int64 structure,
    int8 signs) and are marked read-only — :class:`SignedGraph` is a
    frozen dataclass whose cached ``degrees`` (and every balanced state
    derived via ``with_signs``) assume the loaded arrays never mutate.
    """

    def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
        out = np.ascontiguousarray(arr, dtype=dtype)
        out.setflags(write=False)
        return out

    with np.load(path) as data:
        try:
            return SignedGraph(
                indptr=_frozen(data["indptr"], np.int64),
                adj_vertex=_frozen(data["adj_vertex"], np.int64),
                adj_edge=_frozen(data["adj_edge"], np.int64),
                edge_u=_frozen(data["edge_u"], np.int64),
                edge_v=_frozen(data["edge_v"], np.int64),
                edge_sign=_frozen(data["edge_sign"], np.int8),
            )
        except KeyError as exc:
            raise GraphFormatError(f"snapshot is missing array {exc}") from exc
