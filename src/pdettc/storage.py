"""Binary persistence: dataset containers, model checkpoints.

Container layout (one file per artifact):
  bytes  0..15   magic "PDETTC01" padded with NULs to 16 bytes
  bytes 16..23   u64 little-endian JSON header length
  header         UTF-8 JSON (record_type, shapes, metadata)
  payload        row-major little-endian float32, trajectory-major then
                 time-major then channel-major, channels [rho, vx, vy, p]

Checkpoint layout:
  magic "PDETTCPM", u64 header length, JSON header (model kind,
  architecture config, rng seeds, parameter order), then float64
  parameter blobs in header-declared order.  No optimizer state is
  saved; the step count that older headers carry is ignored.

A sidecar <path>.json mirrors every container header for human
inspection.

Every file is written to a temporary file in its own directory, synced
to disk, moved over its path with os.replace, and the directory synced,
so an interrupted write or a power loss leaves the previous file or the
complete new one, never a partial file, and a completed write stays.
Text outputs (rollout metadata, indexes, metrics, images) go through
`write_text` for the same guarantee.  Readers reject files with bytes
after the declared payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .euler import (Dataset, GridSpec, ICSpec, Normalization, Snapshot,
                    Trajectory)
from .nn import ParamStore
from .vit import ModelConfig

CONTAINER_MAGIC = b"PDETTC01" + b"\x00" * 8
CHECKPOINT_MAGIC = b"PDETTCPM"


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


def _read_header(fh, magic: bytes, path) -> dict:
    got = fh.read(len(magic))
    if got != magic:
        raise StorageError(f"{path}: bad magic {got[:16]!r}")
    size = fh.read(8)
    if len(size) != 8:
        raise StorageError(f"{path}: truncated header")
    (n,) = struct.unpack("<Q", size)
    try:
        return json.loads(fh.read(n).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt header: {exc}") from None


def write_container(path, header: dict, payload: np.ndarray) -> None:
    """Write one container plus its sidecar .json header mirror."""
    path = Path(path)
    header = dict(header)
    header["payload_shape"] = list(payload.shape)
    data = np.ascontiguousarray(payload, dtype="<f4")   # no copy if already so
    with _replacing(path) as fh:
        _write_header(fh, CONTAINER_MAGIC, header)
        fh.write(data)
    write_text(path.with_suffix(path.suffix + ".json"),
               json.dumps(header, sort_keys=True, indent=2) + "\n")


def read_container(path, expect_type: str | None = None):
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_header(fh, CONTAINER_MAGIC, path)
        shape = tuple(header["payload_shape"])
        n = int(np.prod(shape))
        raw = fh.read(4 * n)
        if len(raw) != 4 * n:
            raise StorageError(f"{path}: truncated payload")
        _check_end(fh, path)
    if expect_type is not None and header.get("record_type") != expect_type:
        raise StorageError(
            f"{path}: record_type {header.get('record_type')!r}, wanted {expect_type!r}")
    payload = np.frombuffer(raw, dtype="<f4").reshape(shape)
    return header, payload


def payload_digest(path) -> str:
    """SHA-256 of a container's payload.  Unlike a digest of the file, it
    does not depend on the header, which records the config (output path
    included) that wrote the file."""
    _, payload = read_container(path)
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Datasets


def save_dataset(path, ds: Dataset, config_digest: str | None = None) -> None:
    n = len(ds.trajectories)
    n_t = len(ds.trajectories[0]) if n else 0
    header = {
        "record_type": "DATASET",
        "grid": {"nx": ds.grid.nx, "ny": ds.grid.ny, "lx": ds.grid.lx, "ly": ds.grid.ly},
        "gamma": ds.gamma,
        "channel_order": ["rho", "vx", "vy", "p"],
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
    payload = np.empty((n, n_t, 4, ds.grid.nx, ds.grid.ny), dtype="<f4")
    for i, tr in enumerate(ds.trajectories):
        for k, s in enumerate(tr.snapshots):
            payload[i, k] = s.fields()
    write_container(path, header, payload)


def load_dataset(path) -> Dataset:
    header, payload = read_container(path, expect_type="DATASET")
    g = header["grid"]
    grid = GridSpec(nx=g["nx"], ny=g["ny"], lx=g["lx"], ly=g["ly"])
    times = np.asarray(header["times"])
    trajectories = []
    for i, meta in enumerate(header["trajectories"]):
        spec = ICSpec(family=meta["family"], params=meta["params"], seed=meta["seed"])
        snaps = [Snapshot.from_fields(payload[i, k], times[k])
                 for k in range(header["n_snapshots"])]
        trajectories.append(Trajectory(ic=spec, snapshots=snaps, times=times))
    norm = header["normalization"]
    return Dataset(
        grid=grid, gamma=header["gamma"], trajectories=trajectories,
        split={k: list(v) for k, v in header["splits"].items()},
        normalization=Normalization.from_dict(norm) if norm else None,
        seed=header["seed"], families=tuple(header["families"]),
    )


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
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise StorageError(f"{path}: truncated parameter blob {meta['name']}")
            values[meta["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        _check_end(fh, path)
    norm = header["normalization"]
    return Checkpoint(
        config=ModelConfig(**header["config"]),
        values=values,
        normalization=Normalization.from_dict(norm) if norm else None,
        extra=header.get("extra", {}),
    )
