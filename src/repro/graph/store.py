"""Zero-copy on-disk graph store: one flat file, N processes, one copy.

The paper's scalability argument (§3.2.1, Table 1) rests on keeping a
*single* O(n + m) CSR copy of the graph no matter how many workers
balance trees against it.  Pickling a :class:`SignedGraph` into every
pool worker — what :mod:`repro.parallel.pool` did before this module —
multiplies that copy by the worker count and repeats the serialization
on every supervisor pool rebuild.

:class:`GraphStore` fixes both: :meth:`GraphStore.pack` serializes the
six CSR arrays into a single flat, versioned, checksummed binary file,
and :meth:`GraphStore.open` reopens them as **read-only**
``np.memmap`` views.  Every process that opens the same store file maps
the same page-cache pages, so the graph's resident cost is one copy
machine-wide regardless of worker count, and handing a worker the graph
costs a path string instead of a pickle.

File layout (all integers little-endian)::

    bytes 0..3    magic  b"RSGS"
    bytes 4..7    uint32 format version (currently 1)
    bytes 8..15   uint64 length H of the JSON header
    bytes 16..    UTF-8 JSON header (sorted keys, no timestamps)
    ...           zero padding to the next 64-byte boundary
    payload       the six arrays, each aligned to 64 bytes

The header records each array's dtype, shape, and payload-relative
offset, plus a SHA-256 checksum of the raw payload bytes and the graph
content fingerprint (:func:`graph_fingerprint`, shared with the
checkpoint layer).  Packing the same graph twice produces bit-identical
files, so store files can themselves be fingerprinted and cached.

Opening is O(header): the arrays are mapped, not read.  Pass
``verify=True`` to additionally stream the payload through SHA-256 —
worth it once per machine for a freshly copied file, wasteful per
worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.errors import GraphStoreError
from repro.graph.csr import SignedGraph

__all__ = ["GraphStore", "StoreHeader", "graph_fingerprint"]

PathLike = Union[str, Path]

MAGIC = b"RSGS"
FORMAT_VERSION = 1
_ALIGN = 64
_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header length

# The canonical array order — also the serialization order, so the
# checksum is well-defined.
_ARRAYS: Tuple[Tuple[str, str], ...] = (
    ("indptr", "<i8"),
    ("adj_vertex", "<i8"),
    ("adj_edge", "<i8"),
    ("edge_u", "<i8"),
    ("edge_v", "<i8"),
    ("edge_sign", "|i1"),
)


def graph_fingerprint(graph: SignedGraph) -> str:
    """Content hash of the graph (structure + signs).

    This is the same fingerprint the checkpoint layer embeds in every
    campaign checkpoint (:mod:`repro.cloud.checkpoint` re-exports it),
    so a checkpoint, a store file, and an in-memory graph can all be
    cross-checked against each other.  It is hashed once per graph
    (:attr:`SignedGraph.fingerprint`): a graph's arrays never change.
    """
    return graph.fingerprint


def _align_up(offset: int, align: int = _ALIGN) -> int:
    return (offset + align - 1) // align * align


@dataclass(frozen=True)
class StoreHeader:
    """The parsed JSON header of a store file — everything needed to
    validate a store without mapping its payload."""

    version: int
    num_vertices: int
    num_edges: int
    fingerprint: str
    checksum: str
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int, int], ...]
    # (name, dtype, shape, payload-relative offset, nbytes) per array.


def _build_header(graph: SignedGraph) -> tuple[dict, list[np.ndarray]]:
    n, m = graph.num_vertices, graph.num_edges
    specs = []
    payloads: list[np.ndarray] = []
    cursor = 0
    sha = hashlib.sha256()
    for name, dtype in _ARRAYS:
        arr = np.ascontiguousarray(getattr(graph, name), dtype=np.dtype(dtype))
        cursor = _align_up(cursor)
        specs.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": cursor,
                "nbytes": int(arr.nbytes),
            }
        )
        payloads.append(arr)
        sha.update(arr.tobytes())
        cursor += arr.nbytes
    header = {
        "version": FORMAT_VERSION,
        "num_vertices": int(n),
        "num_edges": int(m),
        "fingerprint": graph_fingerprint(graph),
        "checksum": sha.hexdigest(),
        "align": _ALIGN,
        "arrays": specs,
    }
    return header, payloads


def _parse_header(raw: dict, path: Path) -> StoreHeader:
    try:
        version = int(raw["version"])
        arrays = tuple(
            (
                str(spec["name"]),
                str(spec["dtype"]),
                tuple(int(x) for x in spec["shape"]),
                int(spec["offset"]),
                int(spec["nbytes"]),
            )
            for spec in raw["arrays"]
        )
        header = StoreHeader(
            version=version,
            num_vertices=int(raw["num_vertices"]),
            num_edges=int(raw["num_edges"]),
            fingerprint=str(raw["fingerprint"]),
            checksum=str(raw["checksum"]),
            arrays=arrays,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphStoreError(
            f"malformed graph-store header in {path}: {exc!r}"
        ) from exc
    names = [name for name, *_rest in header.arrays]
    if names != [name for name, _dt in _ARRAYS]:
        raise GraphStoreError(
            f"graph store {path} lists arrays {names}, expected "
            f"{[name for name, _dt in _ARRAYS]}"
        )
    return header


class GraphStore:
    """A packed CSR graph file opened as read-only memmap views.

    Construct with :meth:`pack` (serialize a graph) or :meth:`open`
    (map an existing file); the constructor itself is internal.
    """

    def __init__(
        self, path: Path, header: StoreHeader, data_start: int
    ) -> None:
        self.path = path
        self.header = header
        self._data_start = data_start
        self._graph: SignedGraph | None = None

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, graph: SignedGraph, path: PathLike) -> "GraphStore":
        """Serialize *graph* into a store file at *path* (atomic:
        temp file + fsync + ``os.replace``) and return the opened store.

        The output is deterministic — packing the same graph twice
        yields byte-identical files.
        """
        path = Path(path)
        header, payloads = _build_header(graph)
        blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
        encoded = blob.encode("utf-8")
        preamble = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(encoded))
        data_start = _align_up(len(preamble) + len(encoded))
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(preamble)
                fh.write(encoded)
                fh.write(b"\x00" * (data_start - len(preamble) - len(encoded)))
                cursor = 0
                for spec, arr in zip(header["arrays"], payloads):
                    fh.write(b"\x00" * (spec["offset"] - cursor))
                    fh.write(arr.tobytes())
                    cursor = spec["offset"] + arr.nbytes
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed write
                tmp.unlink()
        return cls.open(path)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @staticmethod
    def read_header(path: PathLike) -> StoreHeader:
        """Parse and validate the header of the store file at *path*
        without mapping its payload (O(header) work)."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                preamble = fh.read(_PREAMBLE.size)
                if len(preamble) < _PREAMBLE.size:
                    raise GraphStoreError(
                        f"{path} is not a graph store: file too short"
                    )
                magic, version, header_len = _PREAMBLE.unpack(preamble)
                if magic != MAGIC:
                    raise GraphStoreError(
                        f"{path} is not a graph store: bad magic {magic!r}"
                    )
                if version != FORMAT_VERSION:
                    raise GraphStoreError(
                        f"graph store {path} has format version {version}; "
                        f"this build reads version {FORMAT_VERSION}"
                    )
                encoded = fh.read(header_len)
        except OSError as exc:
            raise GraphStoreError(
                f"cannot read graph store {path}: {exc}"
            ) from exc
        if len(encoded) < header_len:
            raise GraphStoreError(
                f"{path} is not a graph store: truncated header"
            )
        try:
            raw = json.loads(encoded.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise GraphStoreError(
                f"corrupt graph-store header in {path}: {exc}"
            ) from exc
        return _parse_header(raw, path)

    @classmethod
    def open(cls, path: PathLike, verify: bool = False) -> "GraphStore":
        """Map the store file at *path* read-only.

        Cheap by design: only the header is read eagerly; array pages
        fault in on first touch and are shared machine-wide through the
        page cache.  ``verify=True`` streams the payload through
        SHA-256 and raises :class:`~repro.errors.GraphStoreError` on a
        checksum mismatch.
        """
        path = Path(path)
        header = cls.read_header(path)
        with open(path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
            _magic, _version, header_len = _PREAMBLE.unpack(preamble)
        data_start = _align_up(_PREAMBLE.size + header_len)
        last_name, _dt, _shape, last_off, last_nbytes = header.arrays[-1]
        expected = data_start + last_off + last_nbytes
        actual = path.stat().st_size
        if actual < expected:
            raise GraphStoreError(
                f"graph store {path} is truncated: {actual} bytes on disk, "
                f"payload needs {expected} (missing tail of {last_name!r})"
            )
        store = cls(path, header, data_start)
        if verify:
            store.verify()
        return store

    def verify(self) -> None:
        """Stream the payload through SHA-256 and compare against the
        header checksum; raise on mismatch."""
        sha = hashlib.sha256()
        with open(self.path, "rb") as fh:
            for _name, _dtype, _shape, offset, nbytes in self.header.arrays:
                fh.seek(self._data_start + offset)
                remaining = nbytes
                while remaining:
                    chunk = fh.read(min(remaining, 1 << 20))
                    if not chunk:  # pragma: no cover - caught as truncation
                        raise GraphStoreError(
                            f"graph store {self.path} is truncated"
                        )
                    sha.update(chunk)
                    remaining -= len(chunk)
        if sha.hexdigest() != self.header.checksum:
            raise GraphStoreError(
                f"graph store {self.path} failed checksum verification "
                "(payload bytes do not match the header)"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The packed graph's content fingerprint (from the header)."""
        return self.header.fingerprint

    @property
    def num_vertices(self) -> int:
        return self.header.num_vertices

    @property
    def num_edges(self) -> int:
        return self.header.num_edges

    def graph(self) -> SignedGraph:
        """The packed graph, with every CSR array a read-only
        memmap-backed view (cached; repeated calls share one mapping).

        The arrays are plain ``np.ndarray`` views over the mapping (the
        ``memmap`` subclass is stripped) with ``writeable=False`` — the
        frozen-:class:`SignedGraph` immutability contract holds by
        construction, enforced by the OS this time.
        """
        if self._graph is None:
            arrays = {}
            for name, dtype, shape, offset, nbytes in self.header.arrays:
                if nbytes == 0:
                    # mmap cannot map zero bytes; an empty array needs
                    # no sharing anyway.
                    view = np.empty(shape, dtype=np.dtype(dtype))
                else:
                    mm = np.memmap(
                        self.path,
                        dtype=np.dtype(dtype),
                        mode="r",
                        offset=self._data_start + offset,
                        shape=shape,
                    )
                    view = mm.view(np.ndarray)
                view.flags.writeable = False
                arrays[name] = view
            graph = SignedGraph(**arrays)
            if (
                graph.num_vertices != self.header.num_vertices
                or graph.num_edges != self.header.num_edges
            ):
                raise GraphStoreError(
                    f"graph store {self.path} header counts "
                    f"({self.header.num_vertices} vertices, "
                    f"{self.header.num_edges} edges) disagree with its "
                    f"arrays ({graph.num_vertices}, {graph.num_edges})"
                )
            self._graph = graph
        return self._graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphStore({str(self.path)!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, fingerprint={self.fingerprint[:12]}...)"
        )
