"""Additional interchange formats.

* **Matrix Market** (``.mtx``) — the SuiteSparse collection [11] the
  paper cites distributes signed graphs (e.g. the highland tribes
  network) as coordinate-format symmetric matrices.  We read/write the
  ``coordinate real/integer/pattern symmetric`` subset.
* **KONECT TSV** — the other common distribution format for signed
  networks: a ``% ...`` header followed by ``u v [weight [timestamp]]``
  rows with 1-based vertex ids.
"""

from __future__ import annotations

import io as _io
import re
from pathlib import Path
from typing import Union

from repro.errors import GraphFormatError
from repro.graph.build import from_arrays
from repro.graph.csr import SignedGraph
from repro.graph.io import read_rows, read_text

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_konect",
    "write_konect",
]

PathLike = Union[str, Path]

#: The header line, the ``%`` lines after it and the size line.
_MM_HEAD = re.compile(r"(.*)\n?(?:%.*(?:\n|\Z))*(.*\n?)")


# ----------------------------------------------------------------------
# Matrix Market
# ----------------------------------------------------------------------
def read_matrix_market(
    path: PathLike | _io.TextIOBase, dedup: str = "product"
) -> SignedGraph:
    """Read a symmetric coordinate Matrix Market file as a signed graph.

    Off-diagonal entries become edges whose sign is the sign of the
    stored value (``pattern`` files are all-positive).  Diagonal
    entries (self loops) are ignored, matching the paper's inputs, but
    their values must parse like any other.  Entries are read by
    :func:`~repro.graph.io.read_rows` (``%`` comments).
    """
    text = read_text(path)
    head = _MM_HEAD.match(text)
    header = head.group(1).strip().lower()
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
    dims = head.group(2).split()
    if len(dims) < 3:
        raise GraphFormatError(f"bad size line: {head.group(2)!r}")
    rows, cols, _nnz = int(dims[0]), int(dims[1]), int(dims[2])
    if rows != cols:
        raise GraphFormatError("adjacency matrices must be square")

    u, v, w = read_rows(
        text[head.end():], "i j value", comments="%",
        columns=2 if field == "pattern" else 3,
        first_line=text.count("\n", 0, head.end()) + 1,
    )
    keep = (u != v) & (w != 0.0)  # self loops and zeros: ignored
    return from_arrays(u[keep] - 1, v[keep] - 1, w[keep],
                       num_vertices=rows, dedup=dedup)


def write_matrix_market(graph: SignedGraph, path: PathLike) -> None:
    """Write the signed adjacency as ``coordinate integer symmetric``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer symmetric\n")
        fh.write(f"% signed graph written by repro {graph!r}\n")
        fh.write(f"{graph.num_vertices} {graph.num_vertices} {graph.num_edges}\n")
        for u, v, s in graph.iter_edges():
            # Lower triangle (row >= col) per MM symmetric convention.
            fh.write(f"{v + 1} {u + 1} {s}\n")


# ----------------------------------------------------------------------
# KONECT
# ----------------------------------------------------------------------
def read_konect(
    path: PathLike | _io.TextIOBase, dedup: str = "sum"
) -> SignedGraph:
    """Read a KONECT-style TSV (1-based ids, optional weight column).

    Rows without a weight default to +1; extra columns (timestamps) are
    ignored.  Duplicate votes are resolved by summed sentiment, the
    convention KONECT's signed networks use.  Rows are read by
    :func:`~repro.graph.io.read_rows` (``%`` and ``#`` comments).
    """
    u, v, w = read_rows(read_text(path), "u v [w]", fill=" 1")
    u, v = u - 1, v - 1
    keep = (u != v) & (w != 0.0)
    u, v, w = u[keep], v[keep], w[keep]
    if len(u) and min(u.min(), v.min()) < 0:
        raise GraphFormatError("KONECT ids must be 1-based")
    return from_arrays(u, v, w, dedup=dedup)


def write_konect(graph: SignedGraph, path: PathLike) -> None:
    """Write ``u v sign`` rows with 1-based ids and a KONECT header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("% sym signed\n")
        fh.write(f"% {graph.num_edges} {graph.num_vertices} {graph.num_vertices}\n")
        for u, v, s in graph.iter_edges():
            fh.write(f"{u + 1}\t{v + 1}\t{s}\n")
