"""Binary persistence: containers, datasets and model checkpoints.

Container layout (one file per artifact):
  bytes  0..15   magic "PDETTC01" padded with NULs to 16 bytes
  bytes 16..23   u64 little-endian JSON header length
  header         UTF-8 JSON (record_type, payload_shape, metadata)
  payload        row-major little-endian float32 of payload_shape, by type:
                 DATASET (trajectory, time, channel, x, y), `save_dataset`;
                 ROLLOUT (state, channel, x, y), `ttc.save_rollout_record`.
                 Channels are [rho, vx, vy, p].  A reader checks the
                 header first: a missing key or a wrong value raises
                 StorageError naming it.  It compares the sizes the header
                 declares with the size of the file before it reads them,
                 so a corrupt size is refused as a truncated file instead
                 of being allocated.  Every payload is written row by row
                 by `write_container` (a row is a snapshot or a state),
                 each row converted to float32 on its own, so a writer
                 never holds a copy of the whole payload.

Checkpoint layout:
  magic "PDETTCPM", u64 header length, JSON header (model kind,
  architecture config, rng seeds, parameter order), then float64
  parameter blobs in header-declared order.  No optimizer state is
  saved.

A sidecar <path>.json mirrors every container header for human
inspection.

Datasets live in their files.  `load_dataset` checks the header and the
file size, hashes the payload in fixed-size chunks and keeps one open
descriptor on the file it opened.  Each trajectory's ``snapshots`` is a
read-only `SnapshotRows` sequence over that file: indexing it reads one
float32 row at its offset and returns it as a new float64 `Snapshot`,
slicing it gives another such sequence, and nothing else of the payload
is held.  So a command holds the snapshots it is using, not the dataset.
The descriptor closes when the last trajectory of the dataset is
dropped.  A file that later replaces the path (every write here does,
through os.replace) is not seen by a dataset opened before it.
`SnapshotScratch` is the writing side: `gen-data` appends each solved
snapshot, as the solver reaches it, to an unnamed float64 file beside
its output and gets the same kind of sequence back.  The normalisation,
the drift audit and `save_dataset` then each read one exact float64
snapshot at a time, so the dataset file is byte for byte the one a
dataset held in memory gives.

Every file is written to a temporary file in its own directory, synced
to disk, moved over its path with os.replace, and the directory synced,
so an interrupted write or a power loss leaves the previous file or the
complete new one, never a partial file, and a completed write stays.
Text outputs (indexes, metrics, images) go through `write_text` for
the same guarantee.  Readers reject files with bytes
after the declared payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
import tempfile
import threading
import weakref
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .euler import (CHANNELS, Dataset, GridSpec, ICSpec, Normalization, Snapshot,
                    Trajectory)
from .nn import ParamStore
from .vit import ModelConfig

CONTAINER_MAGIC = b"PDETTC01" + b"\x00" * 8
CHECKPOINT_MAGIC = b"PDETTCPM"
CHUNK_BYTES = 1 << 20           # read size of a payload digest


class StorageError(RuntimeError):
    """Corrupt or mistyped artifact file."""


def _write_header(fh, magic: bytes, header: dict) -> None:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(magic)
    fh.write(struct.pack("<Q", len(blob)))
    fh.write(blob)


@contextlib.contextmanager
def _replacing(path: Path):
    """A binary file handle whose contents replace path once the block ends.

    The data goes to a temporary file beside path; it is flushed and
    fsynced, then moved over path only when the block completes, and
    removed if the block raises.  The directory is fsynced after the
    move, so that the new directory entry is on disk too.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """Replace the file at path with UTF-8 text, atomically and durably."""
    with _replacing(Path(path)) as fh:
        fh.write(text.encode("utf-8"))


def read_json(path):
    """The JSON document in a text file, such as one `write_text` wrote."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt JSON: {exc}") from None


def _check_end(fh, path) -> None:
    if fh.read(1):
        raise StorageError(f"{path}: trailing bytes after the payload")


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """The next n bytes of fh; StorageError "truncated <what>" if the file
    holds fewer, checked before anything is allocated."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise StorageError(f"{path}: truncated {what}")
    raw = fh.read(n)
    if len(raw) != n:
        raise StorageError(f"{path}: truncated {what}")
    return raw


def _read_header(fh, magic: bytes, path) -> dict:
    got = fh.read(len(magic))
    if got != magic:
        raise StorageError(f"{path}: bad magic {got[:16]!r}")
    size = fh.read(8)
    if len(size) != 8:
        raise StorageError(f"{path}: truncated header")
    (n,) = struct.unpack("<Q", size)
    try:
        header = json.loads(_read_exact(fh, n, path, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise StorageError(f"{path}: corrupt header: not a JSON object")
    return header


def _write_sidecar(path: Path, header: dict) -> None:
    write_text(path.with_suffix(path.suffix + ".json"),
               json.dumps(header, sort_keys=True, indent=2) + "\n")


def write_container(path, header: dict, payload_shape, rows) -> None:
    """Write one container of ``payload_shape`` plus its sidecar .json
    header mirror, converting each of ``rows`` to float32 as it writes it.

    Every row has the shape of the first, which must be the trailing
    dimensions of ``payload_shape``, and the rows must fill it exactly;
    if not, ValueError, and the file at path is left as it was.
    """
    path = Path(path)
    shape = [int(d) for d in payload_shape]
    header = {**header, "payload_shape": shape}
    row_shape, count, want = None, 0, 0
    with _replacing(path) as fh:
        _write_header(fh, CONTAINER_MAGIC, header)
        for row in rows:
            data = np.asarray(row, dtype="<f4", order="C")   # no copy if already so
            if row_shape is None:
                row_shape, lead = data.shape, len(shape) - data.ndim
                if lead < 0 or list(row_shape) != shape[lead:]:
                    raise ValueError(f"a row of shape {row_shape} in a payload of "
                                     f"shape {tuple(shape)}")
                want = math.prod(shape[:lead])
            elif data.shape != row_shape:
                raise ValueError(f"a row of shape {data.shape} among rows of {row_shape}")
            count += 1
            if count > want:
                raise ValueError(f"more than {want} rows for a payload of shape {tuple(shape)}")
            fh.write(data)
            del data        # before the next row is made
        if count < want or (row_shape is None and math.prod(shape)):
            raise ValueError(f"{count} rows for a payload of shape {tuple(shape)}")
    _write_sidecar(path, header)


def _open_container(fh, path, expect_type: str | None) -> tuple:
    """The header and payload shape of the container open in fh, which is
    left at the payload.  The payload must fill the rest of the file
    exactly, and the record type must be ``expect_type`` (if given)."""
    header = _read_header(fh, CONTAINER_MAGIC, path)
    shape = header.get("payload_shape")
    if not (isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)):
        raise StorageError(f"{path}: corrupt header: payload_shape {shape!r}")
    declared, left = 4 * math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
    if declared > left:
        raise StorageError(f"{path}: truncated payload")
    if declared < left:
        raise StorageError(f"{path}: trailing bytes after the payload")
    if expect_type is not None and header.get("record_type") != expect_type:
        raise StorageError(
            f"{path}: record_type {header.get('record_type')!r}, wanted {expect_type!r}")
    return header, shape


def read_container(path, expect_type: str | None = None):
    """The header and the whole float32 payload of the container at path."""
    path = Path(path)
    with open(path, "rb") as fh:
        header, shape = _open_container(fh, path, expect_type)
        raw = _read_exact(fh, 4 * math.prod(shape), path, "payload")
    return header, np.frombuffer(raw, dtype="<f4").reshape(shape)


def _payload_sha256(fh, nbytes: int, path) -> str:
    """SHA-256 of the next nbytes of fh, read CHUNK_BYTES at a time."""
    h = hashlib.sha256()
    while nbytes:
        chunk = fh.read(min(CHUNK_BYTES, nbytes))
        if not chunk:
            raise StorageError(f"{path}: truncated payload")
        h.update(chunk)
        nbytes -= len(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Datasets


class _Rows:
    """Equal rows of ``shape`` values of ``dtype``, back to back from byte
    ``offset`` of the file open as ``fd``.  The object owns the descriptor
    and closes it when it is collected."""

    def __init__(self, fd: int, offset: int, shape: tuple, dtype: str, path):
        self.fd, self.offset, self.shape, self.path = fd, offset, tuple(shape), path
        self.dtype = np.dtype(dtype)
        self.nbytes = self.dtype.itemsize * math.prod(self.shape)
        weakref.finalize(self, os.close, fd)

    def read(self, r: int) -> np.ndarray:
        """Row r as a new float64 array."""
        raw = os.pread(self.fd, self.nbytes, self.offset + r * self.nbytes)
        if len(raw) != self.nbytes:
            raise StorageError(f"{self.path}: truncated payload")
        return np.frombuffer(raw, self.dtype).reshape(self.shape).astype(np.float64)


class SnapshotRows(Sequence):
    """Read-only snapshots of one trajectory, kept as rows of a file.

    Item j is row ``first + index[j]`` at time ``times[index[j]]``, read
    when it is asked for and returned as a new float64 `Snapshot`; a
    slice is another `SnapshotRows` over the same file.
    """

    def __init__(self, rows: _Rows, first: int, times: np.ndarray, index: range):
        self._rows, self._first, self._times, self._index = rows, first, times, index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SnapshotRows(self._rows, self._first, self._times, self._index[k])
        j = self._index[k]
        return Snapshot.from_fields(self._rows.read(self._first + j), self._times[j])


class SnapshotScratch:
    """An unnamed float64 file in ``directory`` for solved snapshots on
    ``grid``.

    `append` writes one trajectory's snapshots as they arrive and returns
    them as a `SnapshotRows` over this file, bit for bit the snapshots it
    was given.  The file has no name, so it disappears when its last view
    is dropped, even if the process dies.
    """

    def __init__(self, directory, grid: GridSpec):
        fd, name = tempfile.mkstemp(dir=directory, prefix=".pdettc-", suffix=".rows")
        os.unlink(name)
        self._rows = _Rows(fd, 0, (len(CHANNELS), grid.nx, grid.ny), "<f8",
                           Path(directory) / "(snapshot scratch file)")
        self._count = 0

    def append(self, snapshots) -> SnapshotRows:
        first, times = self._count, []
        for s in snapshots:
            data = np.ascontiguousarray(s.fields(), dtype="<f8")
            if data.shape != self._rows.shape:
                raise ValueError(f"snapshot of shape {data.shape} on a grid of {self._rows.shape}")
            view = memoryview(data).cast("B")
            while view:
                view = view[os.write(self._rows.fd, view):]
            times.append(s.t)
            self._count += 1
        return SnapshotRows(self._rows, first, np.asarray(times), range(len(times)))


def save_dataset(path, ds: Dataset, config_digest: str | None = None) -> None:
    """Write ds as a DATASET container and its sidecar, one snapshot per
    row."""
    n = len(ds.trajectories)
    n_t = len(ds.trajectories[0]) if n else 0
    for tr in ds.trajectories:
        if len(tr) != n_t:
            raise ValueError(f"a trajectory of {len(tr)} snapshots among {n_t}")
    header = {
        "record_type": "DATASET",
        "grid": {"nx": ds.grid.nx, "ny": ds.grid.ny, "lx": ds.grid.lx, "ly": ds.grid.ly},
        "gamma": ds.gamma,
        "channel_order": list(CHANNELS),
        "n_trajectories": n,
        "n_snapshots": n_t,
        "times": ds.trajectories[0].times.tolist() if n else [],
        "families": list(ds.families),
        "seed": ds.seed,
        "trajectories": [
            {"family": tr.ic.family, "seed": tr.ic.seed, "params": tr.ic.params}
            for tr in ds.trajectories
        ],
        "splits": ds.split,
        "normalization": ds.normalization.to_dict() if ds.normalization else None,
    }
    if config_digest is not None:
        header["config_digest"] = config_digest
    write_container(path, header, (n, n_t, len(CHANNELS), ds.grid.nx, ds.grid.ny),
                    (s.fields() for tr in ds.trajectories for s in tr.snapshots))


def load_dataset(path) -> Dataset:
    """The dataset at path, read-only and backed by the file (see the
    module docstring).  Its ``payload_digest`` is the SHA-256 of the
    payload bytes it reads: unlike a digest of the file, it does not
    depend on the header, which records the config (output path
    included) that wrote the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        header, shape = _open_container(fh, path, "DATASET")
        offset = fh.tell()
        try:
            g = header["grid"]
            grid = GridSpec(nx=g["nx"], ny=g["ny"], lx=g["lx"], ly=g["ly"])
            times = np.asarray(header["times"], dtype=np.float64)
            n, n_t = len(header["trajectories"]), header["n_snapshots"]
            want = [n, n_t, len(CHANNELS), grid.nx, grid.ny]
            if shape != want or times.shape != (n_t,):
                raise ValueError(f"payload shape {tuple(shape)} and {times.size} times "
                                 f"for {tuple(want)}")
            specs = [ICSpec(family=meta["family"], params=meta["params"], seed=meta["seed"])
                     for meta in header["trajectories"]]
            split = {k: list(header["splits"][k]) for k in ("train", "val", "test")}
            if not all(isinstance(i, int) and 0 <= i < n for ids in split.values() for i in ids):
                raise ValueError(f"split indices outside the {n} trajectories: {split}")
            norm = header["normalization"]
            norm = Normalization.from_dict(norm) if norm else None
            gamma, seed, families = header["gamma"], header["seed"], tuple(header["families"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"{path}: not a dataset: {type(exc).__name__} {exc}") from None
        digest = _payload_sha256(fh, 4 * math.prod(shape), path)
        rows = _Rows(os.dup(fh.fileno()), offset, want[2:], "<f4", path)
    trajectories = [Trajectory(ic=spec, snapshots=SnapshotRows(rows, i * n_t, times,
                                                               range(n_t)), times=times)
                    for i, spec in enumerate(specs)]
    return Dataset(grid=grid, gamma=gamma, trajectories=trajectories, split=split,
                   normalization=norm, seed=seed, families=families, payload_digest=digest)


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    config: ModelConfig
    values: dict                     # name -> float64 ndarray
    normalization: Normalization | None
    extra: dict


def save_checkpoint(path, model_kind: str, config: ModelConfig, store: ParamStore,
                    normalization: Normalization | None = None,
                    extra: dict | None = None) -> None:
    names = store.names()
    header = {
        "model_kind": model_kind,
        "config": asdict(config),
        "params": [{"name": n, "shape": list(store[n].value.shape)} for n in names],
        "normalization": normalization.to_dict() if normalization else None,
        "extra": extra or {},
    }
    with _replacing(Path(path)) as fh:
        _write_header(fh, CHECKPOINT_MAGIC, header)
        for n in names:
            fh.write(np.ascontiguousarray(store[n].value, dtype="<f8").tobytes())


def load_checkpoint(path, kind: str) -> Checkpoint:
    """The checkpoint at path, which must hold a ``kind`` model
    ("surrogate" or "prm")."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_header(fh, CHECKPOINT_MAGIC, path)
        if header.get("model_kind") != kind:
            raise StorageError(f"{path}: checkpoint holds a {header.get('model_kind')!r} "
                               f"model, wanted {kind!r}")
        values = {}
        for meta in header["params"]:
            shape = tuple(meta["shape"])
            n = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, 8 * n, path, f"parameter blob {meta['name']}")
            values[meta["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        _check_end(fh, path)
    norm = header["normalization"]
    return Checkpoint(
        config=ModelConfig(**header["config"]),
        values=values,
        normalization=Normalization.from_dict(norm) if norm else None,
        extra=header.get("extra", {}),
    )
