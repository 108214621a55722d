"""Crash-safe cloud checkpointing: save, load, recover, and resume.

A 1000-state campaign on a large graph can run for hours in pure
Python; production runs need to survive restarts *and* crashes.  The
checkpoint layer therefore provides three guarantees:

* **Atomic, self-describing writes** (format v2).  :func:`save_cloud`
  writes the accumulators to a temp file, fsyncs, and publishes with
  ``os.replace`` — a kill at any instant leaves either the previous
  checkpoint or the new one, never a torn file.  The payload embeds the
  campaign metadata (:class:`CampaignMeta`: method, kernel, seed,
  batch size, store_states) next to the graph fingerprint, so a
  checkpoint fully describes how to continue it.
* **Rotation + recovery.**  ``save_cloud(..., keep=K)`` rotates the
  last K good checkpoints (``path``, ``path.1``, …) and
  :func:`recover_cloud` falls back to the newest loadable one when the
  latest is truncated or corrupt.  Every array is shape-validated
  against the graph, so damage surfaces as a clear
  :class:`~repro.errors.CheckpointError` instead of a cryptic numpy
  crash deep inside an attribute computation.
* **Validated resume.**  :func:`resume_cloud` continues a seeded
  campaign from state ``cloud.num_states`` onward, bit-identical to an
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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Tuple, Union

import numpy as np

from repro.cloud.cloud import (
    FrustrationCloud,
    balanced_states,
    check_batched_kernel,
)
from repro.errors import CheckpointError, ReproError
from repro.graph.csr import SignedGraph

# Canonical fingerprint lives with the on-disk graph store so that
# checkpoints, store files, and in-memory graphs all hash identically;
# re-exported here for backward compatibility.
from repro.graph.store import graph_fingerprint
from repro.harary.bipartition import sides_from_sign_to_root
from repro.perf.journal import journal_event
from repro.perf.registry import get_registry
from repro.perf.tracing import span
from repro.rng import freeze_seed
from repro.trees.sampler import TreeSampler

__all__ = [
    "CampaignMeta",
    "CheckpointWriter",
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

_FORMAT_VERSION = 2
_COMPAT_VERSIONS = (1, 2)

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
    kernel: str
    seed: int
    batch_size: int
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
    on the same string always finds it.

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
                np.savez_compressed(fh, **payload)
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
        "majority": cloud._majority,
        "majority_sq": cloud._majority_sq,
        "coalition": cloud._coalition,
        "edge_preserved": cloud._edge_preserved,
        "edge_coside": cloud._edge_coside,
        "flip_counts": cloud.flip_counts(),
    }
    metrics = getattr(cloud, "metrics", None)
    if metrics:
        # A 0-d unicode array round-trips through np.load without
        # allow_pickle, keeping the checkpoint pickle-free.
        payload["metrics_json"] = np.array(json.dumps(metrics))
    if cloud.store_states:
        keys = list(cloud._unique.keys())
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
        payload["campaign_kernel"] = np.array(campaign.kernel)
        payload["campaign_seed"] = np.array([campaign.seed], dtype=np.int64)
        payload["campaign_batch_size"] = np.array(
            [campaign.batch_size], dtype=np.int64
        )
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


def _array(data, key: str, shape: tuple, dtype, path: Path) -> np.ndarray:
    try:
        arr = data[key]
    except KeyError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: missing array {key!r}"
        ) from exc
    if arr.shape != shape:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {key} has shape {arr.shape}, "
            f"expected {shape} for this graph"
        )
    return np.ascontiguousarray(arr, dtype=dtype)


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
    cloud._majority = _array(data, "majority", (n,), np.float64, path)
    cloud._majority_sq = _array(data, "majority_sq", (n,), np.float64, path)
    cloud._coalition = _array(data, "coalition", (n,), np.float64, path)
    cloud._edge_preserved = _array(
        data, "edge_preserved", (m,), np.int64, path
    )
    cloud._edge_coside = _array(data, "edge_coside", (m,), np.int64, path)
    # Restore flip counts through the standard doubling buffer so the
    # first post-resume append lands in existing headroom instead of
    # forcing an immediate regrow.
    flips = _array(data, "flip_counts", (num_states,), np.int64, path)
    cloud._append_flip_counts(flips)
    cloud.num_states = num_states
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
        done_blocks = None
        if "campaign_done_blocks" in data.files:
            blocks = data["campaign_done_blocks"]
            if blocks.ndim != 2 or blocks.shape[1] != 3:
                raise CheckpointError(
                    f"corrupt checkpoint {path}: campaign_done_blocks has "
                    f"shape {blocks.shape}, expected (k, 3)"
                )
            done_blocks = tuple(
                tuple(int(x) for x in row) for row in blocks.tolist()
            )
        quarantined_blocks = None
        if "campaign_quarantined_blocks" in data.files:
            blocks = data["campaign_quarantined_blocks"]
            if blocks.ndim != 2 or blocks.shape[1] != 3:
                raise CheckpointError(
                    f"corrupt checkpoint {path}: campaign_quarantined_blocks "
                    f"has shape {blocks.shape}, expected (k, 3)"
                )
            quarantined_blocks = tuple(
                tuple(int(x) for x in row) for row in blocks.tolist()
            )
        meta = CampaignMeta(
            method=str(data["campaign_method"][()]),
            kernel=str(data["campaign_kernel"][()]),
            seed=_scalar(data, "campaign_seed", path),
            batch_size=_scalar(data, "campaign_batch_size", path),
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
    "kernel": "lockstep",
    "seed": 0,
    "batch_size": 1,
    "store_states": False,
    "swaps_per_state": 1,
}


def validate_campaign(
    stored: CampaignMeta | None,
    *,
    method: str | None = None,
    kernel: str | None = None,
    seed: int | None = None,
    batch_size: int | None = None,
    store_states: bool | None = None,
    swaps_per_state: int | None = None,
) -> dict:
    """Resolve resume parameters against a stored campaign.

    Parameters left ``None`` inherit the stored value (or the
    historical default when the checkpoint has no metadata).  A
    parameter that is explicitly given *and* disagrees with the stored
    campaign raises :class:`~repro.errors.CheckpointError` — resuming
    with a different ``(method, kernel, seed, batch_size,
    swaps_per_state)`` would silently diverge from the original run.
    """
    given = {
        "method": method,
        "kernel": kernel,
        "seed": seed,
        "batch_size": batch_size,
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


class CheckpointWriter:
    """Periodic atomic checkpointer bound to one campaign.

    A ``None`` path makes every method a no-op, so campaign drivers can
    call it unconditionally.
    """

    def __init__(
        self,
        path: PathLike | None,
        campaign: CampaignMeta | None = None,
        every: int = 0,
        keep: int = 1,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.campaign = campaign
        self.every = every
        self.keep = keep
        self._since = 0

    def step(self, cloud: FrustrationCloud, new_states: int) -> None:
        """Record *new_states* freshly ingested states; write a rotated
        checkpoint whenever ``every`` of them accumulate."""
        if self.path is None:
            return
        self._since += new_states
        if self.every > 0 and self._since >= self.every:
            self.write(cloud)

    def write(self, cloud: FrustrationCloud) -> None:
        """Write a checkpoint now (atomic, rotated)."""
        if self.path is None:
            return
        save_cloud(cloud, self.path, campaign=self.campaign, keep=self.keep)
        self._since = 0

    final = write


def resume_cloud(
    cloud: FrustrationCloud,
    target_states: int,
    method: str | None = None,
    kernel: str | None = None,
    seed: int | None = None,
    checkpoint_path: PathLike | None = None,
    checkpoint_every: int = 0,
    batch_size: int | None = None,
    keep_checkpoints: int = 1,
    campaign: CampaignMeta | None = None,
    swaps_per_state: int | None = None,
) -> FrustrationCloud:
    """Continue a seeded campaign until ``target_states`` states.

    The next tree index is ``cloud.num_states`` — resuming a
    checkpointed campaign with the same ``(method, kernel, seed,
    batch_size)`` therefore produces exactly the states an
    uninterrupted run would have.  When the cloud came from a v2
    checkpoint (or *campaign* is passed), parameters left ``None``
    inherit the stored campaign and explicit parameters are validated
    against it; a conflict raises
    :class:`~repro.errors.CheckpointError` instead of silently
    diverging.  Optionally re-checkpoints every ``checkpoint_every``
    new states (atomic writes, rotating ``keep_checkpoints`` files).
    ``batch_size > 1`` processes the remaining indices through the
    tree-batched engine (checkpoints then land on batch boundaries).
    """
    stored = campaign if campaign is not None else getattr(
        cloud, "campaign_meta", None
    )
    if stored is not None and stored.done_blocks is not None:
        raise CheckpointError(
            "checkpoint holds salvaged pool blocks, not a contiguous "
            "prefix of the campaign; finish it with "
            "sample_cloud_pool(..., resume_from=...) or the CLI "
            "`cloud --resume --workers`"
        )
    params = validate_campaign(
        stored,
        method=method,
        kernel=kernel,
        seed=seed,
        batch_size=batch_size,
        store_states=cloud.store_states,
        swaps_per_state=swaps_per_state,
    )
    method = params["method"]
    kernel = params["kernel"]
    batch_size = params["batch_size"]
    swaps_per_state = params["swaps_per_state"]
    if batch_size < 1:
        raise ReproError("batch_size must be positive")
    check_batched_kernel(method, kernel, batch_size)
    if target_states < cloud.num_states:
        raise ReproError(
            f"cloud already has {cloud.num_states} states > target {target_states}"
        )
    frozen = freeze_seed(params["seed"])
    meta = CampaignMeta(
        method=method,
        kernel=kernel,
        seed=frozen,
        batch_size=batch_size,
        store_states=cloud.store_states,
        swaps_per_state=swaps_per_state,
    )
    writer = CheckpointWriter(
        checkpoint_path, meta, every=checkpoint_every, keep=keep_checkpoints
    )
    sampler = TreeSampler(
        cloud.graph, method=method, seed=frozen,
        swaps_per_state=swaps_per_state,
    )
    # Swap-chain states are a pure function of (seed, index), so a
    # resume re-enters the chain at the cloud's next index and replays
    # at most segment_length - 1 states to reach it — the states
    # produced are exactly the uninterrupted campaign's.
    for signs, s2r in balanced_states(
        cloud.graph, sampler, range(cloud.num_states, target_states),
        kernel=kernel, batch_size=batch_size,
    ):
        cloud.add_batch(signs, sides_from_sign_to_root(s2r))
        writer.step(cloud, len(signs))
    if checkpoint_path is not None:
        writer.final(cloud)
    cloud.campaign_meta = meta
    return cloud
