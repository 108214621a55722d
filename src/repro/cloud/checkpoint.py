"""Crash-safe cloud checkpointing: save, load, recover, and resume.

A 1000-state campaign on a large graph can run for hours in pure
Python; production runs need to survive restarts *and* crashes.  The
checkpoint layer therefore provides three guarantees:

* **Atomic, self-describing writes** (format v4).  :func:`save_cloud`
  writes the accumulators, as int64 whole units, to a temp file (an
  NPZ zip whose members deflate at level 1), fsyncs, and publishes
  with ``os.replace`` — a kill at any instant leaves either the
  previous checkpoint or the new one, never a torn file.  The payload
  embeds the campaign metadata (:class:`CampaignMeta`: method, seed,
  store_states, swap stride) next to the graph fingerprint, so a
  checkpoint fully describes how to continue it.  No array grows with
  the state count: the flip counts are a histogram.  v3 files (a
  per-state flip log) and v1/v2 files (float sums) still load.
* **Rotation + recovery.**  ``save_cloud(..., keep=K)`` rotates the
  last K good checkpoints (``path``, ``path.1``, …) and
  :func:`recover_cloud` falls back to the newest loadable one when the
  latest is truncated or corrupt.  Every array is shape-validated
  against the graph and every accumulator bounds-checked against the
  state count, so damage surfaces as a clear
  :class:`~repro.errors.CheckpointError` instead of a cryptic numpy
  crash deep inside an attribute computation.
* **Validated resume.**  :func:`resume_cloud` continues a seeded
  campaign over the indices it has not run (a prefix checkpoint's tail,
  or the holes of a salvage checkpoint), byte for byte the
  uninterrupted run (tested under fault injection — see
  :mod:`repro.util.faults`).  When the checkpoint carries campaign
  metadata, resume parameters left as ``None`` are inherited from it
  and explicitly passed parameters are checked against it; a mismatch
  raises instead of silently producing a divergent cloud.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Tuple, Union

import numpy as np

from repro.cloud.cloud import FrustrationCloud, _flip_histogram
from repro.errors import CheckpointError
from repro.graph.csr import SignedGraph

# Canonical fingerprint lives with the on-disk graph store so that
# checkpoints, store files, and in-memory graphs all hash identically;
# re-exported here for backward compatibility.
from repro.graph.store import graph_fingerprint
from repro.perf.journal import journal_event
from repro.perf.registry import get_registry
from repro.perf.tracing import span

__all__ = [
    "CampaignMeta",
    "save_cloud",
    "load_cloud",
    "load_checkpoint",
    "recover_cloud",
    "resume_cloud",
    "validate_campaign",
    "graph_fingerprint",
    "rotated_paths",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 4
_COMPAT_VERSIONS = (1, 2, 3, 4)

# Fault-injection seams (see repro.util.faults): the atomic-write path
# goes through these module attributes so crash tests can simulate a
# kill mid-write or just before the publishing rename without touching
# the real os module.
_replace: Callable[..., None] = os.replace
_wrap_stream: Callable[[IO[bytes]], IO[bytes]] = lambda fh: fh


@dataclass(frozen=True)
class CampaignMeta:
    """The parameters that determine a campaign's exact state sequence.

    ``done_blocks`` is ``None`` for a normal checkpoint (states
    ``0 .. num_states-1`` are a contiguous prefix of the campaign) and
    a tuple of ``(start, stop, step)`` index blocks for a pool-salvage
    checkpoint, where only those blocks completed before a sibling
    worker crashed (see :func:`repro.parallel.pool.sample_cloud_pool`).

    ``quarantined_blocks`` records blocks the self-healing supervisor
    (:mod:`repro.parallel.supervisor`) gave up on after exhausting its
    retry ladder.  They are never part of ``done_blocks``, so a resume
    re-attempts exactly them; recording them separately lets the resume
    (and operators) see *which* missing blocks were poison rather than
    merely unreached.
    """

    method: str
    seed: int
    store_states: bool
    # Swap-chain stride (method="swap" only); 1 for every other method,
    # and the implicit value of checkpoints written before the chain
    # engine existed.
    swaps_per_state: int = 1
    # Path of the packed GraphStore file the campaign ran against, when
    # it used the zero-copy pool path.  Advisory, not part of resume
    # validation: the graph's identity is already pinned by the
    # checkpoint-level fingerprint, and the store may legitimately live
    # at a different path (or be absent) on the resuming machine.  When
    # the recorded store still exists, the pool resume cross-checks its
    # header fingerprint against the graph before trusting it.
    graph_store: str | None = None
    done_blocks: Tuple[Tuple[int, int, int], ...] | None = None
    quarantined_blocks: Tuple[Tuple[int, int, int], ...] | None = None


# ----------------------------------------------------------------------
# Atomic write + rotation
# ----------------------------------------------------------------------
def _backup_path(path: Path, k: int) -> Path:
    return path.with_name(f"{path.name}.{k}")


def _rotate(path: Path, keep: int) -> None:
    """Shift ``path`` into the backup chain ``path.1 .. path.{keep-1}``."""
    if keep <= 1 or not path.exists():
        return
    for k in range(keep - 2, 0, -1):
        src = _backup_path(path, k)
        if src.exists():
            _replace(src, _backup_path(path, k + 1))
    _replace(path, _backup_path(path, 1))


def rotated_paths(path: PathLike) -> list[Path]:
    """The checkpoint path and its existing rotation backups, newest
    first (the primary path is listed even when missing, so callers can
    report it)."""
    return list(_candidates(Path(path)))


def _candidates(path: Path) -> Iterator[Path]:
    yield path
    k = 1
    while True:
        backup = _backup_path(path, k)
        if not backup.exists():
            return
        yield backup
        k += 1


def save_cloud(
    cloud: FrustrationCloud,
    path: PathLike,
    campaign: CampaignMeta | None = None,
    keep: int = 1,
) -> None:
    """Persist the cloud's accumulators to an NPZ checkpoint at *path*.

    The write is atomic: the payload goes to ``<path>.tmp`` first, is
    flushed and fsynced, and only then renamed over *path* — a crash at
    any point leaves the previous checkpoint untouched.  The file lands
    at exactly the requested path (no implicit ``.npz`` suffix is
    appended, unlike bare ``np.savez_compressed``), so ``load_cloud``
    on the same string always finds it.  The file is the zip that
    ``np.savez_compressed`` writes, member for member, but deflated at
    level 1 instead of 6: a third of the time for ~10% more bytes.

    ``keep >= 2`` additionally rotates the previous checkpoint to
    ``<path>.1`` (and so on, keeping ``keep`` files total), which lets
    :func:`recover_cloud` fall back past a checkpoint that was damaged
    *after* it was written.
    """
    path = Path(path)
    if keep < 1:
        raise CheckpointError(f"keep must be >= 1, got {keep}")
    if campaign is not None and campaign.store_states != cloud.store_states:
        raise CheckpointError(
            "campaign.store_states disagrees with the cloud being saved"
        )
    with span("checkpoint_write"):
        payload = _payload(cloud, campaign)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as raw:
                fh = _wrap_stream(raw)
                _write_npz(fh, payload)
                fh.flush()
                os.fsync(raw.fileno())
            _rotate(path, keep)
            _replace(tmp, path)
        except OSError as exc:
            # A raw OSError here is an I/O failure (classically ENOSPC)
            # mid-atomic-write: remove the partial temp file so the
            # rotation chain stays clean, record what happened, and
            # surface the failure as a CheckpointError the campaign
            # layers already know how to degrade on.
            with contextlib.suppress(OSError):
                tmp.unlink()
            kind = "disk_full" if exc.errno == errno.ENOSPC else "io_error"
            get_registry().count(f"checkpoint.{kind}_total", 1)
            journal_event(
                kind, op="checkpoint_write", path=str(path), error=str(exc)
            )
            raise CheckpointError(
                f"checkpoint write to {path} failed: {exc}"
            ) from exc
        registry = get_registry()
        registry.count("checkpoint.writes_total", 1)
        registry.gauge("checkpoint.last_bytes", float(path.stat().st_size))
        journal_event(
            "checkpoint_written",
            path=str(path),
            states=cloud.num_states,
            bytes=path.stat().st_size,
        )


def _write_npz(fh: IO[bytes], payload: dict[str, np.ndarray]) -> None:
    """Write *payload* to *fh* as ``np.savez_compressed`` does, one
    ``<name>.npy`` member per array, at deflate level 1."""
    with zipfile.ZipFile(
        fh, "w", zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for name, array in payload.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _payload(
    cloud: FrustrationCloud, campaign: CampaignMeta | None
) -> dict[str, np.ndarray]:
    payload: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "fingerprint": np.frombuffer(
            graph_fingerprint(cloud.graph).encode("ascii"), dtype=np.uint8
        ),
        "num_vertices": np.array([cloud.graph.num_vertices], dtype=np.int64),
        "num_edges": np.array([cloud.graph.num_edges], dtype=np.int64),
        "num_states": np.array([cloud.num_states], dtype=np.int64),
        "store_states": np.array([int(cloud.store_states)], dtype=np.int64),
        "majority": cloud._majority.astype(np.int64),
        "coalition": cloud._coalition.astype(np.int64),
        "edge_preserved": cloud._edge_preserved.astype(np.int64),
        "edge_coside": cloud._edge_coside.astype(np.int64),
        "ties": np.array([cloud._ties], dtype=np.int64),
        "flip_offset": np.array([cloud._flip_lo], dtype=np.int64),
        "flip_histogram": cloud._flips,
    }
    metrics = getattr(cloud, "metrics", None)
    if metrics:
        # A 0-d unicode array round-trips through np.load without
        # allow_pickle, keeping the checkpoint pickle-free.
        payload["metrics_json"] = np.array(json.dumps(metrics))
    if cloud.store_states:
        # Canonical order (by sign bytes), so the payload does not
        # depend on the order blocks merged.
        keys = sorted(cloud._unique)
        payload["unique_signs"] = (
            np.stack([np.frombuffer(k, dtype=np.int8) for k in keys])
            if keys
            else np.empty((0, cloud.graph.num_edges), dtype=np.int8)
        )
        payload["unique_counts"] = np.asarray(
            [cloud._unique[k] for k in keys], dtype=np.int64
        )
    if campaign is not None:
        payload["campaign_method"] = np.array(campaign.method)
        payload["campaign_seed"] = np.array([campaign.seed], dtype=np.int64)
        payload["campaign_store_states"] = np.array(
            [int(campaign.store_states)], dtype=np.int64
        )
        payload["campaign_swaps_per_state"] = np.array(
            [campaign.swaps_per_state], dtype=np.int64
        )
        if campaign.graph_store is not None:
            payload["campaign_graph_store"] = np.array(campaign.graph_store)
        if campaign.done_blocks is not None:
            payload["campaign_done_blocks"] = np.asarray(
                campaign.done_blocks, dtype=np.int64
            ).reshape(-1, 3)
        if campaign.quarantined_blocks is not None:
            payload["campaign_quarantined_blocks"] = np.asarray(
                campaign.quarantined_blocks, dtype=np.int64
            ).reshape(-1, 3)
    return payload


# ----------------------------------------------------------------------
# Load + validation + recovery
# ----------------------------------------------------------------------
def _scalar(data, key: str, path: Path) -> int:
    try:
        arr = data[key]
    except KeyError as exc:
        raise CheckpointError(
            f"{path} is not a cloud checkpoint: missing {key!r}"
        ) from exc
    if np.size(arr) < 1:
        raise CheckpointError(f"corrupt checkpoint {path}: empty {key!r}")
    return int(np.ravel(arr)[0])


def _block_rows(data, key: str, path: Path) -> tuple | None:
    """The ``(start, stop, step)`` rows stored under *key* (``None``
    when absent); a row no campaign could have run is damage."""
    if key not in data.files:
        return None
    blocks = data[key]
    if blocks.ndim != 2 or blocks.shape[1] != 3:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {key} has shape {blocks.shape}, "
            "expected (k, 3)"
        )
    rows = tuple(tuple(int(x) for x in row) for row in blocks.tolist())
    for start, stop, step in rows:
        if step < 1 or not 0 <= start <= stop:
            raise CheckpointError(
                f"corrupt checkpoint {path}: {key} holds block "
                f"{(start, stop, step)}, expected 0 <= start <= stop "
                "and step >= 1"
            )
    return rows


def _array(data, key: str, shape, dtype, path: Path) -> np.ndarray:
    try:
        arr = data[key]
    except KeyError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: missing array {key!r}"
        ) from exc
    if shape is not None and arr.shape != shape:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {key} has shape {arr.shape}, "
            f"expected {shape} for this graph"
        )
    return np.ascontiguousarray(arr, dtype=dtype)


def _accumulator(
    data, key: str, size: int, unit: int, version: int, path: Path
) -> np.ndarray:
    """One accumulator as int64 whole units.  v3 and v4 store integers; a
    v1/v2 sum is scaled by *unit* and must land within 0.25 of an
    integer (its float rounding error stays far below that)."""
    raw = _array(data, key, (size,), None, path)
    if version >= 3:
        if not np.issubdtype(raw.dtype, np.integer):
            raise CheckpointError(
                f"corrupt checkpoint {path}: {key} has dtype {raw.dtype}, "
                "expected integers"
            )
        return raw.astype(np.int64)
    scaled = raw.astype(np.float64) * unit
    whole = np.rint(scaled)
    off = ~(np.abs(scaled - whole) <= 0.25)
    if np.any(off):
        raise CheckpointError(
            f"corrupt checkpoint {path}: {key} value "
            f"{float(raw[off][0])!r} is not a whole number of 1/{unit} units"
        )
    return whole.astype(np.int64)


def _stored_flips(
    data, version: int, m: int, num_states: int, path: Path
) -> tuple[int, np.ndarray]:
    """The flip counts as ``(lo, counts)``: v4's histogram or an older
    file's per-state log, each flip count in ``[0, m]``."""
    if version < 4:
        flips = _array(data, "flip_counts", (num_states,), np.int64, path)
        bad = flips[(flips < 0) | (flips > m)]
        if bad.size:
            raise CheckpointError(f"corrupt checkpoint {path}: flip_counts "
                                  f"holds {bad[0]}, outside [0, {m} edges]")
        return _flip_histogram(flips)
    lo = _scalar(data, "flip_offset", path)
    counts = _array(data, "flip_histogram", None, None, path)
    if not (counts.ndim == 1 and np.issubdtype(counts.dtype, np.integer)
            and 0 <= lo and lo + len(counts) <= m + 1
            and np.all(counts >= 0) and counts.sum() == num_states
            and (not counts.size or counts[0] and counts[-1])):
        raise CheckpointError(
            f"corrupt checkpoint {path}: flip_histogram from flip_offset "
            f"{lo} is not {num_states} states' counts over [0, {m}] flips "
            "with nonzero ends"
        )
    return lo, counts.astype(np.int64)


def _restore(
    data, graph: SignedGraph, path: Path
) -> tuple[FrustrationCloud, CampaignMeta | None]:
    version = _scalar(data, "version", path)
    if version not in _COMPAT_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version} in {path} "
            f"(this build reads versions {_COMPAT_VERSIONS})"
        )
    try:
        stored_fp = bytes(data["fingerprint"]).decode("ascii")
    except KeyError as exc:
        raise CheckpointError(
            f"{path} is not a cloud checkpoint: missing 'fingerprint'"
        ) from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: unreadable fingerprint"
        ) from exc
    if stored_fp != graph_fingerprint(graph):
        raise CheckpointError(
            f"checkpoint {path} was built from a different graph "
            "(fingerprint mismatch)"
        )
    n, m = graph.num_vertices, graph.num_edges
    num_states = _scalar(data, "num_states", path)
    if num_states < 0:
        raise CheckpointError(
            f"corrupt checkpoint {path}: negative num_states {num_states}"
        )
    store_states = bool(_scalar(data, "store_states", path))

    cloud = FrustrationCloud(graph, store_states=store_states)
    # Each accumulator's length, unit and largest value per state: v3
    # and later store whole units, v1/v2 stored the sums divided by the
    # unit.  Before v4 the tie count came as majority_sq.
    others = max(n - 1, 0)
    accumulators = (
        ("majority", n, 2, 2),
        ("coalition", n, max(others, 1), others),
        ("edge_preserved", m, 1, 1),
        ("edge_coside", m, 1, 1),
    ) + ((("majority_sq", n, 4, 4),) if version < 4 else ())
    stored = {}
    for key, size, unit, per_state in accumulators:
        values = _accumulator(data, key, size, unit, version, path)
        bad = ~((values >= 0) & (values <= per_state * num_states))
        if np.any(bad):
            raise CheckpointError(
                f"corrupt checkpoint {path}: {key} holds "
                f"{int(values[bad][0])}, outside [0, {per_state} * "
                f"{num_states} states]"
            )
        stored[key] = values
    cloud._majority = stored["majority"].astype(np.float64)
    cloud._coalition = stored["coalition"].astype(np.float64)
    cloud._edge_coside, cloud.num_states = stored["edge_coside"], num_states
    cloud._edge_preserved = stored["edge_preserved"]
    cloud._fit_counts(num_states)
    if version >= 4:
        cloud._ties = _scalar(data, "ties", path)
    else:
        sq = stored["majority_sq"]
        cloud._ties = int(2 * stored["majority"][0] - sq[0]) if n else 0
    # The dependent values must agree with the accumulators: a vertex
    # scores 2 per state it won and 1 per tie, v3's majority_sq is
    # 2 * majority - ties, and an edge's preserved count follows from
    # its co-side count.
    ties, won = cloud._ties, stored["majority"] - cloud._ties
    checks = {
        "majority_sq": version >= 4 or np.array_equal(
            stored["majority_sq"], 2 * stored["majority"] - ties),
        "ties": 0 <= ties <= num_states and np.all(
            (won >= 0) & (won % 2 == 0) & (won <= 2 * (num_states - ties))),
        "edge_preserved": np.array_equal(stored["edge_preserved"], np.where(
            graph.edge_sign > 0, cloud._edge_coside,
            num_states - cloud._edge_coside)),
    }
    for key, ok in checks.items():
        if not ok:
            raise CheckpointError(f"corrupt checkpoint {path}: {key} "
                                  "disagrees with the accumulators")
    cloud._add_flips(*_stored_flips(data, version, m, num_states, path))
    if store_states:
        try:
            signs = data["unique_signs"]
            counts = data["unique_counts"]
        except KeyError as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: store_states set but "
                f"missing {exc}"
            ) from exc
        if signs.ndim != 2 or signs.shape[1] != m:
            raise CheckpointError(
                f"corrupt checkpoint {path}: unique_signs has shape "
                f"{signs.shape}, expected (k, {m})"
            )
        if counts.shape != (signs.shape[0],):
            raise CheckpointError(
                f"corrupt checkpoint {path}: unique_counts has shape "
                f"{counts.shape}, expected ({signs.shape[0]},)"
            )
        if int(counts.sum()) != num_states:
            raise CheckpointError(
                f"corrupt checkpoint {path}: unique-state counts sum to "
                f"{int(counts.sum())}, expected {num_states}"
            )
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        cloud._unique = {
            signs[i].tobytes(): int(counts[i]) for i in range(len(counts))
        }

    if "metrics_json" in data.files:
        try:
            metrics = json.loads(str(data["metrics_json"][()]))
        except (ValueError, TypeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: unreadable metrics_json"
            ) from exc
        if not isinstance(metrics, dict):
            raise CheckpointError(
                f"corrupt checkpoint {path}: metrics_json is not an object"
            )
        cloud.metrics = metrics

    meta: CampaignMeta | None = None
    if version >= 2 and "campaign_method" in data.files:
        done_blocks = _block_rows(data, "campaign_done_blocks", path)
        quarantined_blocks = _block_rows(
            data, "campaign_quarantined_blocks", path
        )
        # Older files also carry campaign_kernel and campaign_batch_size
        # keys.  Neither ever changed a campaign's states, so both are
        # ignored.
        meta = CampaignMeta(
            method=str(data["campaign_method"][()]),
            seed=_scalar(data, "campaign_seed", path),
            store_states=bool(_scalar(data, "campaign_store_states", path)),
            # Checkpoints written before the swap-chain engine carry no
            # swaps_per_state key; their campaigns implicitly used 1.
            swaps_per_state=(
                _scalar(data, "campaign_swaps_per_state", path)
                if "campaign_swaps_per_state" in data.files
                else 1
            ),
            graph_store=(
                str(data["campaign_graph_store"][()])
                if "campaign_graph_store" in data.files
                else None
            ),
            done_blocks=done_blocks,
            quarantined_blocks=quarantined_blocks,
        )
        if meta.store_states != store_states:
            raise CheckpointError(
                f"corrupt checkpoint {path}: campaign metadata disagrees "
                "with the stored accumulators on store_states"
            )
    return cloud, meta


def load_checkpoint(
    path: PathLike, graph: SignedGraph
) -> tuple[FrustrationCloud, CampaignMeta | None]:
    """Restore a checkpoint and its campaign metadata (``None`` for v1
    checkpoints, which predate self-description).

    Every failure mode — missing file, torn/truncated zip, bit-flipped
    payload, wrong graph, wrong array shapes — raises
    :class:`~repro.errors.CheckpointError`.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            cloud, meta = _restore(data, graph, path)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"corrupt or unreadable checkpoint {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    cloud.campaign_meta = meta
    return cloud, meta


def load_cloud(path: PathLike, graph: SignedGraph) -> FrustrationCloud:
    """Restore a checkpoint against the graph it was built from.

    Convenience wrapper around :func:`load_checkpoint`; the campaign
    metadata (when present) is attached to the returned cloud as
    ``cloud.campaign_meta`` so :func:`resume_cloud` can validate
    against it.
    """
    cloud, _meta = load_checkpoint(path, graph)
    return cloud


def recover_cloud(
    path: PathLike, graph: SignedGraph
) -> tuple[FrustrationCloud, CampaignMeta | None, Path]:
    """Load the newest loadable checkpoint among *path* and its
    rotation backups (``path.1``, ``path.2``, …).

    Returns ``(cloud, meta, source_path)``.  Raises
    :class:`~repro.errors.CheckpointError` describing every attempted
    file when none loads.
    """
    path = Path(path)
    attempts: list[str] = []
    for candidate in _candidates(path):
        try:
            cloud, meta = load_checkpoint(candidate, graph)
            return cloud, meta, candidate
        except CheckpointError as exc:
            attempts.append(f"{candidate}: {exc}")
    raise CheckpointError(
        f"no loadable checkpoint at {path} or its backups; tried: "
        + " | ".join(attempts)
    )


# ----------------------------------------------------------------------
# Campaign validation + resume
# ----------------------------------------------------------------------
_CAMPAIGN_DEFAULTS = {
    "method": "bfs",
    "seed": 0,
    "store_states": False,
    "swaps_per_state": 1,
}


def validate_campaign(
    stored: CampaignMeta | None,
    *,
    method: str | None = None,
    seed: int | None = None,
    store_states: bool | None = None,
    swaps_per_state: int | None = None,
) -> dict:
    """Resolve resume parameters against a stored campaign.

    Parameters left ``None`` inherit the stored value (or the
    historical default when the checkpoint has no metadata).  A
    parameter that is explicitly given *and* disagrees with the stored
    campaign raises :class:`~repro.errors.CheckpointError` — resuming
    with a different ``(method, seed, swaps_per_state)``
    would silently diverge from the original run.
    """
    given = {
        "method": method,
        "seed": seed,
        "store_states": store_states,
        "swaps_per_state": swaps_per_state,
    }
    resolved = {}
    for name, value in given.items():
        stored_value = getattr(stored, name) if stored is not None else None
        if value is None:
            resolved[name] = (
                stored_value if stored is not None else _CAMPAIGN_DEFAULTS[name]
            )
        elif stored is not None and value != stored_value:
            raise CheckpointError(
                f"resume {name}={value!r} does not match the checkpoint's "
                f"campaign {name}={stored_value!r}; resuming would diverge "
                "from the original run (pass matching parameters, or omit "
                "them to inherit the stored campaign)"
            )
        else:
            resolved[name] = value
    return resolved


def resume_cloud(
    cloud: FrustrationCloud,
    target_states: int,
    method: str | None = None,
    seed: int | None = None,
    checkpoint_path: PathLike | None = None,
    checkpoint_every: int = 0,
    batch_size: int | str | None = None,
    keep_checkpoints: int = 1,
    campaign: CampaignMeta | None = None,
    swaps_per_state: int | None = None,
) -> FrustrationCloud:
    """Continue a seeded campaign until ``target_states`` states.

    This is the one campaign driver
    (:func:`repro.parallel.pool.run_campaign`) resuming from *cloud*,
    which it extends in place: the indices its campaign has not run —
    the tail past a prefix checkpoint, or the holes of a salvage
    checkpoint's ``done_blocks`` — are sampled and merged, so resuming
    with the same ``(method, seed, swaps_per_state)`` produces exactly
    the uninterrupted campaign, checkpoint byte for byte.  When the
    cloud came from a v2 or v3 checkpoint (or *campaign* is passed),
    parameters left ``None`` inherit the stored campaign and explicit
    parameters are validated against it; a conflict raises
    :class:`~repro.errors.CheckpointError` instead of silently
    diverging.  Optionally re-checkpoints every ``checkpoint_every``
    new states (atomic writes, rotating ``keep_checkpoints`` files).
    ``batch_size`` is accepted and ignored: the engine picks its chunks.
    """
    from repro.parallel.pool import accept_batch_size, run_campaign

    accept_batch_size(batch_size)
    if campaign is not None:
        cloud.campaign_meta = campaign
    return run_campaign(
        cloud.graph, target_states, method=method, seed=seed,
        swaps_per_state=swaps_per_state,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        keep_checkpoints=keep_checkpoints, resume_from=cloud,
    )
