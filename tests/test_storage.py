import builtins
import errno
import gc
import hashlib
import json
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdettc import storage
from pdettc.euler import (Dataset, GridSpec, ICSpec, Normalization, Snapshot,
                          Trajectory, generate_dataset)
from pdettc.rng import RngStream
from pdettc.storage import (StorageError, load_checkpoint, load_dataset,
                            read_container, save_checkpoint, save_dataset,
                            write_container)
from pdettc.vit import ModelConfig, VisionTransformer

TINY_CFG = ModelConfig(height=8, width=8, patch_size=3, in_channels=5, out_channels=4,
                       embed_dim=8, depth=1, n_heads=2, mlp_ratio=2.0, dropout_p=0.1)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(["rp", "gauss"], 2, GridSpec(8, 8), seed=5,
                            split_fractions=(0.5, 0.25, 0.25))


def test_dataset_roundtrip(tmp_path, small_dataset):
    path = tmp_path / "ds.pdt"
    save_dataset(path, small_dataset, config_digest="abc123")
    back = load_dataset(path)
    assert back.grid == small_dataset.grid
    assert back.split == small_dataset.split
    assert back.families == small_dataset.families
    assert np.array_equal(back.normalization.mean, small_dataset.normalization.mean)
    for a, b in zip(small_dataset.trajectories, back.trajectories):
        assert a.ic.family == b.ic.family and a.ic.params == b.ic.params
        for sa, sb in zip(a.snapshots, b.snapshots):
            # payload is float32; loaded values are the float32 cast exactly
            assert np.array_equal(sa.fields().astype(np.float32),
                                  sb.fields().astype(np.float32))
            assert sa.t == sb.t


def test_dataset_sidecar_header(tmp_path, small_dataset):
    path = tmp_path / "ds.pdt"
    save_dataset(path, small_dataset, config_digest="abc123")
    sidecar = json.loads((tmp_path / "ds.pdt.json").read_text())
    assert sidecar["record_type"] == "DATASET"
    assert sidecar["channel_order"] == ["rho", "vx", "vy", "p"]
    assert sidecar["config_digest"] == "abc123"
    assert sidecar["payload_shape"] == [4, 21, 4, 8, 8]


def test_dataset_write_is_bit_deterministic(tmp_path, small_dataset):
    p1, p2 = tmp_path / "a.pdt", tmp_path / "b.pdt"
    save_dataset(p1, small_dataset)
    save_dataset(p2, small_dataset)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_container_bytes_frozen(tmp_path):
    # hand-built, so the bytes depend only on the container format; the
    # digests were computed with the float64-stacking save_dataset
    times = np.array([0.0, 0.125, 0.25])
    base = np.arange(4 * 8 * 8, dtype=np.float64).reshape(4, 8, 8)
    trajs = [Trajectory(ic=ICSpec(fam, {"a": 0.5 + k}, seed=k),
                        snapshots=[Snapshot.from_fields(base / (7.0 + k) + t + 1.0, t)
                                   for t in times],
                        times=times)
             for k, fam in enumerate(("rp", "kh"))]
    ds = Dataset(grid=GridSpec(8, 8), gamma=1.4, trajectories=trajs,
                 split={"train": [1], "val": [0], "test": []},
                 normalization=Normalization.from_trajectories(trajs[1:]), seed=3,
                 families=("rp", "kh"))
    save_dataset(tmp_path / "ds.pdt", ds, config_digest="abc")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("ds.pdt", "ds.pdt.json")}
    assert digests == {
        "ds.pdt": "b3692941e4f1aacb10c67ff4df58a9a927dbd5de07b69ee195c5e1f208611e2a",
        "ds.pdt.json": "ac9545ac516462343c8ae0a48c83665b77d42e3f12cf98b22fdc0965572bf1be",
    }


def test_empty_dataset_roundtrip(tmp_path):
    ds = generate_dataset(["rp"], 0, GridSpec(8, 8), seed=0)
    path = tmp_path / "empty.pdt"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.trajectories == [] and back.normalization is None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.pdt"
    path.write_bytes(b"NOTAMAGICNOTAMAG" + b"\x00" * 64)
    with pytest.raises(StorageError, match="bad magic"):
        read_container(path)


def test_truncated_payload_rejected(tmp_path, small_dataset):
    path = tmp_path / "ds.pdt"
    save_dataset(path, small_dataset)
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(StorageError, match="truncated"):
        read_container(path)


def test_record_type_mismatch(tmp_path):
    path = tmp_path / "x.pdt"
    write_container(path, {"record_type": "ROLLOUT"}, (1, 2), np.zeros((1, 2)))
    with pytest.raises(StorageError, match="record_type"):
        read_container(path, expect_type="DATASET")


def test_checkpoint_roundtrip_exact(tmp_path, small_dataset):
    cfg = ModelConfig(height=8, width=8, patch_size=3, in_channels=5,
                      out_channels=4, embed_dim=8, depth=1, n_heads=2,
                      mlp_ratio=2.0, dropout_p=0.1)
    model = VisionTransformer(cfg, RngStream(3, 1))
    store = model.param_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "surrogate", cfg, store,
                    normalization=small_dataset.normalization,
                    extra={"dt_out": 0.05})
    ckpt = load_checkpoint(path, "surrogate")
    with pytest.raises(StorageError, match="holds a 'surrogate' model, wanted 'prm'"):
        load_checkpoint(path, "prm")
    assert ckpt.config == cfg
    assert ckpt.extra["dt_out"] == 0.05
    assert np.array_equal(ckpt.normalization.std, small_dataset.normalization.std)
    for name, p in store.params.items():
        assert np.array_equal(ckpt.values[name], p.value)   # float64 exact


def test_checkpoint_with_a_step_count_in_its_header_still_loads(tmp_path):
    # checkpoints once carried the optimizer step count in their header
    store = VisionTransformer(TINY_CFG, RngStream(3, 1)).param_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "surrogate", TINY_CFG, store)
    with open(path, "rb") as fh:
        header = storage._read_header(fh, storage.CHECKPOINT_MAGIC, path)
        blobs = fh.read()
    with open(path, "wb") as fh:
        storage._write_header(fh, storage.CHECKPOINT_MAGIC, {**header, "step_count": 17})
        fh.write(blobs)
    ckpt = load_checkpoint(path, "surrogate")
    assert ckpt.config == TINY_CFG
    assert ckpt.values.keys() == store.params.keys()
    for name, p in store.params.items():
        assert np.array_equal(ckpt.values[name], p.value)


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
    with pytest.raises(StorageError, match="bad magic"):
        load_checkpoint(path, "surrogate")


def test_trailing_bytes_rejected(tmp_path, small_dataset):
    path = tmp_path / "ds.pdt"
    save_dataset(path, small_dataset)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(StorageError, match="trailing bytes"):
        read_container(path)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, "surrogate", TINY_CFG,
                    VisionTransformer(TINY_CFG, RngStream(3, 1)).param_store())
    ckpt.write_bytes(ckpt.read_bytes() + b"x")
    with pytest.raises(StorageError, match="trailing bytes"):
        load_checkpoint(ckpt, "surrogate")


class _DiskFillsUp:
    """A binary file that accepts `budget` bytes, then fails like a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        data = bytes(data)
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fail_writes_after(monkeypatch, budget):
    def fake_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _DiskFillsUp(fh, budget) if "w" in mode else fh
    monkeypatch.setattr(storage, "open", fake_open, raising=False)


def test_failed_write_leaves_previous_files_intact(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.pdt"
    ckpt = tmp_path / "m.ckpt"
    store = VisionTransformer(TINY_CFG, RngStream(3, 1)).param_store()
    save_dataset(path, small_dataset)
    save_checkpoint(ckpt, "surrogate", TINY_CFG, store)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"ds.pdt", "ds.pdt.json", "m.ckpt"}
    other = generate_dataset(["kh"], 1, GridSpec(8, 8), seed=6)
    store.load_values({k: v + 1.0 for k, v in store.values_copy().items()})
    _fail_writes_after(monkeypatch, 4096)             # past the header, inside the payload
    with pytest.raises(OSError, match="No space"):
        save_dataset(path, other)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(ckpt, "surrogate", TINY_CFG, store)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    save_dataset(path, other)
    assert load_dataset(path).trajectories[0].ic.family == "kh"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.pdt", "ds.pdt.json", "m.ckpt"]


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.text(max_size=8))


@settings(max_examples=40, deadline=None)
@given(header=st.dictionaries(st.text(max_size=8).filter(lambda k: k != "payload_shape"),
                              st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)),
                              max_size=4),
       payload=hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                        max_side=5)))
def test_container_round_trip(header, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.pdt"
        write_container(path, header, payload.shape, [payload])
        got_header, got = read_container(path)
        first = path.read_bytes()
        write_container(path, header, payload.shape, [payload])
        assert path.read_bytes() == first
        sidecar = json.loads((Path(tmp) / "c.pdt.json").read_text())
    assert got_header == sidecar == {**header, "payload_shape": list(payload.shape)}
    assert got.dtype == np.dtype("<f4") and got.shape == payload.shape
    assert got.tobytes() == payload.astype("<f4").tobytes()       # NaN payloads too


@pytest.mark.parametrize("lead", [1, 2, 3])
def test_rows_of_any_trailing_shape_write_the_same_container(tmp_path, lead):
    whole = np.arange(24, dtype=np.float64).reshape(3, 2, 4)
    write_container(tmp_path / "a.pdt", {"record_type": "X"}, whole.shape, [whole])
    write_container(tmp_path / "b.pdt", {"record_type": "X"}, whole.shape,
                    list(whole.reshape(-1, *whole.shape[lead:])))
    for name in ("{}.pdt", "{}.pdt.json"):
        assert ((tmp_path / name.format("a")).read_bytes()
                == (tmp_path / name.format("b")).read_bytes())


@pytest.mark.parametrize("rows,match", [
    ([np.ones((2, 4))] * 2, "2 rows for a payload of shape"),
    ([np.ones((2, 4))] * 4, "more than 3 rows"),
    ([np.ones((2, 4)), np.ones((2, 5)), np.ones((2, 4))], "a row of shape"),
    ([np.ones((4, 2))] * 3, "a row of shape"),
    ([np.ones((1, 3, 2, 4))], "a row of shape"),
    ([], "0 rows"),
])
def test_rows_that_do_not_fill_the_payload_leave_the_previous_file(tmp_path, rows, match):
    path = tmp_path / "c.pdt"
    write_container(path, {"record_type": "X"}, (3, 2, 4), np.ones((3, 2, 4)))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=match):
        write_container(path, {"record_type": "Y"}, (3, 2, 4), rows)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_an_empty_payload_takes_no_rows(tmp_path):
    write_container(tmp_path / "c.pdt", {}, (0, 2), [])
    header, payload = read_container(tmp_path / "c.pdt")
    assert header == {"payload_shape": [0, 2]} and payload.shape == (0, 2)
    with pytest.raises(ValueError, match="more than 0 rows"):
        write_container(tmp_path / "c.pdt", {}, (0, 2), [np.ones(2)])


def test_a_write_fsyncs_the_file_before_and_the_directory_after_the_rename(
        tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    synced = []
    fsync = os.fsync

    def record(fd):
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.exists()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record)
    storage.write_text(path, "x")
    assert synced == [(False, False), (True, True)]
    assert path.read_text() == "x" and os.listdir(tmp_path) == ["a.txt"]


def test_a_loaded_dataset_reads_the_float64_of_each_payload_row(tmp_path, small_dataset,
                                                                monkeypatch):
    path = tmp_path / "ds.pdt"
    save_dataset(path, small_dataset)
    _, payload = read_container(path)
    monkeypatch.setattr(storage, "CHUNK_BYTES", 1000)     # the digest reads many chunks
    ds = load_dataset(path)
    assert ds.payload_digest == hashlib.sha256(payload.tobytes()).hexdigest()
    for i, tr in enumerate(ds.trajectories):
        assert isinstance(tr.snapshots, storage.SnapshotRows)
        rows = [payload[i, k].astype(np.float64).tobytes() for k in range(len(tr))]
        assert [s.fields().tobytes() for s in tr.snapshots] == rows
        assert all(s.fields().dtype == np.float64 for s in tr.snapshots)
        assert [s.t for s in tr.snapshots] == list(tr.times)
        tail = tr.snapshots[1:][::2]
        assert isinstance(tail, storage.SnapshotRows) and len(tail) == len(tr) // 2
        assert [s.fields().tobytes() for s in tail] == rows[1::2]
        assert tr.snapshots[-1].fields().tobytes() == rows[-1]
        with pytest.raises(IndexError):
            tr.snapshots[len(tr)]


def test_a_dataset_solved_into_a_scratch_file_equals_the_one_in_memory(tmp_path):
    grid = GridSpec(8, 8)
    args = (["rp", "gauss"], 2, grid, 5, (0.5, 0.25, 0.25))
    scratch = storage.SnapshotScratch(tmp_path, grid)
    on_disk = generate_dataset(*args, store=scratch.append)
    in_memory = generate_dataset(*args)
    assert os.listdir(tmp_path) == []                    # the scratch file has no name
    assert on_disk.split == in_memory.split
    assert on_disk.normalization.to_dict() == in_memory.normalization.to_dict()
    for a, b in zip(on_disk.trajectories, in_memory.trajectories, strict=True):
        assert isinstance(a.snapshots, storage.SnapshotRows) and a.ic == b.ic
        assert [(s.fields().tobytes(), s.t) for s in a.snapshots] == \
            [(s.fields().tobytes(), s.t) for s in b.snapshots]
    save_dataset(tmp_path / "a.pdt", on_disk, config_digest="x")
    save_dataset(tmp_path / "b.pdt", in_memory, config_digest="x")
    assert (tmp_path / "a.pdt").read_bytes() == (tmp_path / "b.pdt").read_bytes()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_dropping_a_dataset_closes_its_file_without_a_resource_warning(tmp_path,
                                                                       small_dataset):
    path = tmp_path / "ds.pdt"
    save_dataset(path, small_dataset)
    before = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load_dataset(path)
        scratch = storage.SnapshotScratch(tmp_path, small_dataset.grid)
        rows = scratch.append(small_dataset.trajectories[0].snapshots)
        assert _open_fds() == before + 2
        assert ds.trajectories[1].snapshots[2].t == small_dataset.trajectories[1].times[2]
        del ds, scratch, rows
        gc.collect()
    assert _open_fds() == before
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
