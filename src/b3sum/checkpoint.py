"""Versioned binary checkpoints: named float32 tensors plus a config hash.

Layout (all integers little-endian):

    magic   4 bytes  "B3SM"
    version u32      currently 1
    count   u32      number of tensors
    entries          name length u16, name UTF-8, rank u8,
                     dims u32 * rank, float32 data
    trailer 32 bytes config hash (sha256 of the canonical config JSON)

Round trips are bit-exact; loading rejects wrong magic or version and
truncated files, and warns when the stored config hash differs from the
expected one.  Saving writes a temporary file beside the target and renames
it into place, so a failed save leaves any previous checkpoint as it was.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct

import numpy as np

MAGIC = b"B3SM"
VERSION = 1

log = logging.getLogger("b3sum.checkpoint")


class CheckpointError(ValueError):
    pass


def tensor_map(params) -> dict[str, np.ndarray]:
    """Name -> value array for a parameter list; names must be unique."""
    out: dict[str, np.ndarray] = {}
    for p in params:
        if p.name in out:
            raise CheckpointError(f"duplicate tensor name {p.name!r}")
        out[p.name] = p.value
    return out


def save_checkpoint(tensors: dict[str, np.ndarray], path, config_hash: bytes = b"") -> None:
    if len(config_hash) not in (0, 32):
        raise CheckpointError("config hash must be 32 bytes (or empty)")
    config_hash = config_hash or b"\x00" * 32
    for name in tensors:
        if len(name.encode("utf-8")) > 0xFFFF:
            raise CheckpointError(
                f"tensor name {name[:40]!r}... is longer than 65535 UTF-8 bytes"
            )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(tensors)))
            for name, value in tensors.items():
                arr = np.ascontiguousarray(value, dtype="<f4")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
            fh.write(config_hash)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path, expect_hash: bytes | None = None) -> tuple[dict[str, np.ndarray], bytes]:
    """Returns (tensors, stored config hash).

    A mismatching ``expect_hash`` only logs a warning: the tensors may still
    be usable under a different configuration.
    """
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if _read(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        version, count = struct.unpack("<II", _read(fh, 8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, "name length"))
            name = _read(fh, name_len, "name").decode("utf-8")
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            (rank,) = struct.unpack("<B", _read(fh, 1, "rank"))
            dims = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, "dims"))
            n = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(_read(fh, 4 * n, f"data of {name!r}"), dtype="<f4")
            tensors[name] = data.reshape(dims).copy()
        stored_hash = _read(fh, 32, "config hash")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after config hash")
    if expect_hash is not None and stored_hash != expect_hash:
        log.warning(
            "%s: config hash mismatch (stored %s..., expected %s...)",
            path, stored_hash.hex()[:12], expect_hash.hex()[:12],
        )
    return tensors, stored_hash


def restore_params(params, tensors: dict[str, np.ndarray], strict: bool = True) -> None:
    """Copy loaded tensors into a model's parameters by name.

    Every tensor is checked before any is copied: a missing, unknown (with
    ``strict``), misshapen or non-finite tensor raises CheckpointError naming
    it and leaves the model unchanged.
    """
    byname = {p.name: p for p in params}
    missing = set(byname) - set(tensors)
    unknown = set(tensors) - set(byname)
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")
    if unknown and strict:
        raise CheckpointError(f"checkpoint has unknown tensors: {sorted(unknown)}")
    for name, p in byname.items():
        arr = tensors[name]
        if arr.shape != p.value.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {arr.shape}, model expects {p.value.shape}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
    for name, p in byname.items():
        p.value[...] = tensors[name]


def checkpoint_digest(path) -> str:
    """sha256 of the file contents; used for provenance records."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
