"""Tests for cloud checkpoint/resume."""

import zipfile

import numpy as np
import pytest

from repro.cloud import sample_cloud
from repro.cloud.checkpoint import (
    CampaignMeta,
    _payload,
    graph_fingerprint,
    load_checkpoint,
    load_cloud,
    resume_cloud,
    save_cloud,
)
from repro.cli import main
from repro.errors import CheckpointError, ReproError
from repro.graph.io import write_edgelist

from tests.conftest import make_connected_signed


@pytest.fixture
def graph():
    return make_connected_signed(50, 120, seed=0)


class TestFingerprint:
    def test_stable(self, graph):
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_sensitive_to_signs(self, graph):
        flipped = graph.with_signs(-graph.edge_sign)
        assert graph_fingerprint(graph) != graph_fingerprint(flipped)

    def test_sensitive_to_structure(self, graph):
        other = make_connected_signed(50, 121, seed=0)
        assert graph_fingerprint(graph) != graph_fingerprint(other)

    def test_equal_graphs_built_apart_agree(self, graph):
        twin = make_connected_signed(50, 120, seed=0)
        assert twin is not graph
        assert graph_fingerprint(twin) == graph_fingerprint(graph)

    def test_hashed_once_per_graph(self, graph, monkeypatch):
        import hashlib

        first = graph_fingerprint(graph)
        # A second hash of the same graph would call sha256 and fail.
        monkeypatch.setattr(hashlib, "sha256", None)
        assert graph_fingerprint(graph) == first

    def test_checkpoint_for_resigned_graph_rejected(self, graph, tmp_path):
        # with_signs shares the CSR arrays but not the cached hash.
        path = tmp_path / "cloud.npz"
        save_cloud(sample_cloud(graph, 3, seed=0), path)
        flipped = graph.with_signs(-graph.edge_sign)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_cloud(path, flipped)


class TestSaveLoad:
    def test_round_trip_attributes(self, graph, tmp_path):
        cloud = sample_cloud(graph, 12, seed=3, store_states=True)
        path = tmp_path / "cloud.npz"
        save_cloud(cloud, path)
        back = load_cloud(path, graph)
        assert back.num_states == 12
        np.testing.assert_allclose(back.status(), cloud.status())
        np.testing.assert_allclose(back.influence(), cloud.influence())
        np.testing.assert_allclose(back.edge_coside(), cloud.edge_coside())
        assert back.num_unique_states == cloud.num_unique_states
        assert sorted(back.flip_counts()) == sorted(cloud.flip_counts())

    def test_wrong_graph_rejected(self, graph, tmp_path):
        cloud = sample_cloud(graph, 5, seed=0)
        path = tmp_path / "cloud.npz"
        save_cloud(cloud, path)
        other = make_connected_signed(50, 120, seed=9)
        with pytest.raises(ReproError, match="fingerprint"):
            load_cloud(path, other)

    def test_not_a_checkpoint(self, graph, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ReproError):
            load_cloud(path, graph)

    @pytest.mark.parametrize("name", ["cloud", "cloud.npz", "cloud.ckpt"])
    def test_exact_path_honored_for_any_spelling(self, graph, tmp_path, name):
        # np.savez_compressed appends ".npz" to suffix-less paths; the
        # checkpoint layer must not, or load on the requested path fails.
        cloud = sample_cloud(graph, 5, seed=1)
        path = tmp_path / name
        save_cloud(cloud, path)
        assert path.exists()
        assert not (tmp_path / (name + ".npz")).exists()
        back = load_cloud(path, graph)
        assert back.num_states == 5

    def test_campaign_metadata_round_trip(self, graph, tmp_path):
        cloud = sample_cloud(graph, 5, seed=3, batch_size=1)
        meta = CampaignMeta(
            method="bfs", seed=3,
            store_states=False,
        )
        path = tmp_path / "cloud.npz"
        save_cloud(cloud, path, campaign=meta)
        back, stored = load_checkpoint(path, graph)
        assert stored == meta
        assert back.campaign_meta == meta

    def test_v1_checkpoint_still_loads(self, graph, tmp_path):
        # A v1 payload (no campaign metadata, exact-length flip buffer,
        # float accumulators: the sum of δ, of δ², and of the coalition
        # fraction) written by an earlier release must remain loadable.
        cloud = sample_cloud(graph, 6, seed=2)
        n = graph.num_vertices
        save_cloud(cloud, tmp_path / "v3.npz")
        with np.load(tmp_path / "v3.npz") as v3:
            majority_sq = v3["majority_sq"]
            edge_preserved = v3["edge_preserved"]
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path.open("wb"),
            version=np.array([1]),
            fingerprint=np.frombuffer(
                graph_fingerprint(graph).encode("ascii"), dtype=np.uint8
            ),
            num_states=np.array([cloud.num_states]),
            store_states=np.array([0]),
            majority=cloud._majority / 2,
            majority_sq=majority_sq / 4,
            coalition=cloud._coalition / (n - 1),
            edge_preserved=edge_preserved,
            edge_coside=cloud._edge_coside,
            flip_counts=cloud.flip_counts(),
        )
        back, meta = load_checkpoint(path, graph)
        assert meta is None
        np.testing.assert_array_equal(back.status(), cloud.status())
        np.testing.assert_array_equal(back.influence(), cloud.influence())

    def test_loaded_flip_buffer_has_headroom(self, graph, tmp_path):
        # Restoring into the doubling buffer means the first post-resume
        # append must not trigger an immediate regrow.
        cloud = sample_cloud(graph, 12, seed=3)
        path = tmp_path / "cloud.npz"
        save_cloud(cloud, path)
        back = load_cloud(path, graph)
        capacity = len(back._flip_counts)
        assert capacity > back.num_states
        back._append_flip_counts(np.array([5]))
        assert len(back._flip_counts) == capacity  # no regrow
        np.testing.assert_array_equal(
            back.flip_counts()[:-1], cloud.flip_counts()
        )


def arrays(path):
    """Every array of the NPZ file at *path*: name -> (dtype, shape,
    bytes)."""
    with np.load(path) as data:
        return {key: (data[key].dtype.str, data[key].shape,
                      data[key].tobytes())
                for key in data.files}


class TestWriter:
    """``save_cloud`` writes the zip ``np.savez_compressed`` writes,
    member for member, deflated at level 1 instead of 6."""

    @pytest.fixture(params=["bfs", "swap", "store_states", "salvage"])
    def case(self, request, graph):
        kind = request.param
        if kind == "salvage":
            meta = CampaignMeta(
                method="bfs", seed=3, store_states=False,
                done_blocks=((0, 4, 1), (8, 12, 1)),
                quarantined_blocks=((4, 8, 1),),
            )
            return sample_cloud(graph, 8, seed=3), meta
        method = "swap" if kind == "swap" else "bfs"
        store = kind == "store_states"
        cloud = sample_cloud(graph, 9, seed=3, method=method,
                             store_states=store)
        return cloud, CampaignMeta(method=method, seed=3, store_states=store)

    def test_every_member_is_deflated(self, case, tmp_path):
        cloud, meta = case
        path = tmp_path / "c.npz"
        save_cloud(cloud, path, campaign=meta)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert members
        assert all(m.compress_type == zipfile.ZIP_DEFLATED for m in members)

    def test_arrays_equal_savez_compressed(self, case, tmp_path):
        cloud, meta = case
        path, reference = tmp_path / "c.npz", tmp_path / "reference.npz"
        save_cloud(cloud, path, campaign=meta)
        np.savez_compressed(reference, **_payload(cloud, meta))
        got = arrays(path)
        assert got == arrays(reference)
        if cloud.store_states:
            assert "unique_signs" in got
        if meta.done_blocks is not None:
            assert "campaign_done_blocks" in got

    def test_savez_compressed_file_resumes_byte_for_byte(
        self, graph, tmp_path
    ):
        """A checkpoint deflated at level 6 by ``np.savez_compressed``
        (the earlier writer) loads, and resumes to the uninterrupted
        campaign's checkpoint arrays (all but ``metrics_json``, which
        holds timings)."""
        meta = CampaignMeta(method="bfs", seed=7, store_states=False)
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **_payload(sample_cloud(graph, 5, seed=7),
                                            meta))
        cloud, stored = load_checkpoint(old, graph)
        assert stored == meta
        resume_cloud(cloud, 12, checkpoint_path=tmp_path / "resumed.npz")
        sample_cloud(graph, 12, seed=7, checkpoint_path=tmp_path / "full.npz")
        resumed, full = (arrays(tmp_path / name)
                         for name in ("resumed.npz", "full.npz"))
        del resumed["metrics_json"], full["metrics_json"]
        assert resumed == full


def rewrite(path, **changes):
    """Rewrite the checkpoint at *path* with some arrays replaced."""
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    payload.update(changes)
    np.savez(path.open("wb"), **payload)


class TestAccumulatorBounds:
    """v3 stores whole units; a value no campaign of the stored state
    count could reach is damage, and the error names the array."""

    @pytest.fixture
    def saved(self, graph, tmp_path):
        cloud = sample_cloud(graph, 6, seed=2)
        path = tmp_path / "c.npz"
        save_cloud(cloud, path)
        return cloud, path

    def test_writes_integer_units(self, graph, saved):
        cloud, path = saved
        assert load_checkpoint(path, graph)[0].num_states == 6
        with np.load(path) as data:
            assert int(data["version"][0]) == 3
            for key in ("majority", "majority_sq", "coalition"):
                assert data[key].dtype == np.int64, key
            np.testing.assert_array_equal(
                data["majority"], cloud._majority.astype(np.int64)
            )

    @pytest.mark.parametrize("key, value", [
        ("majority", 2 * 6 + 1),
        ("majority", -1),
        ("majority_sq", 4 * 6 + 1),
        ("coalition", 6 * 49 + 1),
        ("coalition", -3),
        ("edge_preserved", 7),
        ("edge_coside", -1),
    ])
    def test_out_of_bounds_value_names_the_array(
        self, graph, saved, key, value
    ):
        _cloud, path = saved
        with np.load(path) as data:
            arr = data[key].copy()
        arr[3] = value
        rewrite(path, **{key: arr})
        with pytest.raises(CheckpointError, match=f": {key} holds {value},"):
            load_checkpoint(path, graph)

    def test_float_accumulator_in_v3_is_rejected(self, graph, saved):
        _cloud, path = saved
        with np.load(path) as data:
            majority = data["majority"].astype(np.float64)
        rewrite(path, majority=majority + 0.5)
        with pytest.raises(CheckpointError, match="majority has dtype"):
            load_checkpoint(path, graph)

    @pytest.mark.parametrize("key", ["majority_sq", "edge_preserved"])
    def test_derived_array_must_agree(self, graph, saved, key):
        """majority_sq and edge_preserved follow from the other arrays;
        an in-bounds value off that derivation is damage too."""
        _cloud, path = saved
        with np.load(path) as data:
            arr = data[key].copy()
        arr[3] += 1 if arr[3] == 0 else -1
        rewrite(path, **{key: arr})
        with pytest.raises(CheckpointError, match=f"{key} disagrees"):
            load_checkpoint(path, graph)

    def _as_v2(self, cloud, path, n):
        """Rewrite *path* in the v2 units: float sums of δ, δ² and the
        coalition fraction."""
        with np.load(path) as data:
            majority_sq = data["majority_sq"]
        rewrite(
            path,
            version=np.array([2]),
            majority=cloud._majority / 2,
            majority_sq=majority_sq / 4,
            coalition=cloud._coalition / (n - 1),
        )

    def test_v2_converts_exactly(self, graph, saved):
        cloud, path = saved
        self._as_v2(cloud, path, graph.num_vertices)
        back, _meta = load_checkpoint(path, graph)
        for name in ("_majority", "_coalition"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(cloud, name))
        assert back._ties == cloud._ties
        np.testing.assert_array_equal(back.influence(), cloud.influence())
        np.testing.assert_array_equal(back.status_volatility(),
                                      cloud.status_volatility())

    @pytest.mark.parametrize("key, unit", [
        ("majority", 2), ("majority_sq", 4), ("coalition", 49),
    ])
    def test_v2_value_off_the_unit_grid_is_rejected(
        self, graph, saved, key, unit
    ):
        cloud, path = saved
        self._as_v2(cloud, path, graph.num_vertices)
        with np.load(path) as data:
            arr = data[key].copy()
        arr[5] += 0.3 / unit  # 0.3 units from the nearest integer
        rewrite(path, **{key: arr})
        with pytest.raises(CheckpointError, match=f"{key} value"):
            load_checkpoint(path, graph)

    def test_v2_nan_is_rejected(self, graph, saved):
        cloud, path = saved
        self._as_v2(cloud, path, graph.num_vertices)
        with np.load(path) as data:
            arr = data["coalition"].copy()
        arr[0] = np.nan
        rewrite(path, coalition=arr)
        with pytest.raises(CheckpointError, match="coalition value nan"):
            load_checkpoint(path, graph)


class TestBlockRows:
    """``done_blocks`` / ``quarantined_blocks`` rows no campaign could
    have run are damage, refused at load rather than at resume."""

    @pytest.fixture
    def salvage(self, graph, tmp_path):
        cloud = sample_cloud(graph, 6, seed=2)
        path = tmp_path / "salvage.npz"
        save_cloud(cloud, path, campaign=CampaignMeta(
            method="bfs", seed=2, store_states=False,
            done_blocks=((0, 6, 1),), quarantined_blocks=((6, 8, 1),),
        ))
        return path

    @pytest.mark.parametrize("key", [
        "campaign_done_blocks", "campaign_quarantined_blocks",
    ])
    @pytest.mark.parametrize("row", [
        (0, 6, 0), (0, 6, -1), (-1, 6, 1), (6, 0, 1),
    ])
    def test_malformed_row_is_rejected(self, graph, salvage, key, row):
        rewrite(salvage, **{key: np.array([row], dtype=np.int64)})
        with pytest.raises(CheckpointError, match=f"{key} holds block"):
            load_checkpoint(salvage, graph)

    def test_step_zero_row_fails_the_pool_resume_cleanly(
        self, graph, salvage
    ):
        from repro.parallel.pool import sample_cloud_pool

        rewrite(salvage, campaign_done_blocks=np.array(
            [(0, 6, 0)], dtype=np.int64
        ))
        with pytest.raises(CheckpointError):
            sample_cloud_pool(graph, 8, workers=1, seed=2,
                              resume_from=salvage)

    def test_well_formed_rows_load(self, graph, salvage):
        _cloud, meta = load_checkpoint(salvage, graph)
        assert meta.done_blocks == ((0, 6, 1),)
        assert meta.quarantined_blocks == ((6, 8, 1),)


def with_stored_kernel(path):
    """Rewrite the checkpoint at *path* in the older v2 layout that also
    recorded the campaign's cycle kernel: float sums of δ, δ² and the
    coalition fraction."""
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    n = len(payload["majority"])
    payload.update(
        version=np.array([2]),
        majority=payload["majority"] / 2,
        majority_sq=payload["majority_sq"] / 4,
        coalition=payload["coalition"] / (n - 1),
        campaign_kernel=np.array("walk"),
    )
    np.savez(path, **payload)


class TestStoredKernel:
    """Checkpoints that still record a kernel load, and resume exactly
    like the uninterrupted campaign: no kernel ever changed a state."""

    def test_resume_cloud(self, graph, tmp_path):
        path = tmp_path / "old.npz"
        sample_cloud(graph, 5, seed=7, checkpoint_path=path)
        with_stored_kernel(path)
        cloud, meta = load_checkpoint(path, graph)
        assert meta.method == "bfs" and meta.seed == 7
        resumed = resume_cloud(cloud, 12)
        full = sample_cloud(graph, 12, seed=7)
        for name in ("_majority", "_coalition", "_edge_coside"):
            np.testing.assert_array_equal(
                getattr(resumed, name), getattr(full, name)
            )
        for name in ("status_volatility", "edge_agreement"):
            np.testing.assert_array_equal(
                getattr(resumed, name)(), getattr(full, name)()
            )
        np.testing.assert_array_equal(resumed.flip_counts(), full.flip_counts())

    def test_cli_resume(self, graph, tmp_path):
        text, ckpt = tmp_path / "graph.txt", tmp_path / "old.npz"
        resumed, direct = tmp_path / "resumed.csv", tmp_path / "direct.csv"
        write_edgelist(graph, text)
        assert main(["cloud", str(text), "--states", "5", "--seed", "7",
                     "--checkpoint", str(ckpt)]) == 0
        with_stored_kernel(ckpt)
        assert main(["cloud", str(text), "--states", "12",
                     "--resume", str(ckpt), "--output", str(resumed)]) == 0
        assert main(["cloud", str(text), "--states", "12", "--seed", "7",
                     "--output", str(direct)]) == 0
        assert resumed.read_text() == direct.read_text()


class TestResume:
    def test_resume_is_bit_identical_to_uninterrupted(self, graph, tmp_path):
        # Run 20 states straight through...
        full = sample_cloud(graph, 20, seed=7)
        # ...or 8 states, checkpoint, reload, resume to 20.
        partial = sample_cloud(graph, 8, seed=7)
        path = tmp_path / "ckpt.npz"
        save_cloud(partial, path)
        restored = load_cloud(path, graph)
        resumed = resume_cloud(restored, 20, seed=7)
        np.testing.assert_array_equal(full.status(), resumed.status())
        np.testing.assert_array_equal(
            full.edge_agreement(), resumed.edge_agreement()
        )
        assert resumed.num_states == 20

    def test_periodic_checkpointing(self, graph, tmp_path):
        path = tmp_path / "rolling.npz"
        cloud = sample_cloud(graph, 3, seed=1)
        resume_cloud(
            cloud, 9, seed=1, checkpoint_path=path, checkpoint_every=2
        )
        final = load_cloud(path, graph)
        assert final.num_states == 9

    def test_target_below_current_rejected(self, graph):
        cloud = sample_cloud(graph, 5, seed=0)
        with pytest.raises(ReproError):
            resume_cloud(cloud, 3, seed=0)
