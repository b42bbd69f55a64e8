"""Versioned binary checkpoints: named float32 tensors plus a config hash.

Layout (all integers little-endian):

    magic   4 bytes  "B3SM"
    version u32      currently 1
    count   u32      number of tensors
    entries          name length u16, name UTF-8, rank u8,
                     dims u32 * rank, float32 data
    trailer 32 bytes config hash (``RunConfig.hash_bytes``)

Round trips are bit-exact; loading rejects wrong magic or version,
truncated files and headers that claim more data than the file holds, and
warns when the stored config hash differs from the expected one.  Saving
writes a temporary file beside the target and renames it into place, so a
failed save leaves any previous checkpoint as it was.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import os
import struct

import numpy as np

from .tape import all_finite

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
    with atomic_write(path, "xb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, value in tensors.items():
            arr = np.ascontiguousarray(value, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.data)  # the array's own buffer, not a bytes copy of it
        fh.write(config_hash)


@contextlib.contextmanager
def atomic_write(path, mode: str, encoding: str | None = None):
    """A new temporary file beside ``path``, opened with ``mode`` (``"xb"``
    or ``"x"``), that is flushed, fsynced and moved over ``path`` when the
    block ends, and then the directory holding it fsynced, so the move
    outlasts a crash; if the block raises, the file is removed and ``path``
    keeps what it held."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, mode, encoding=encoding)
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _fits(path, fh, end: int, size: int, what: str) -> None:
    """Raise unless ``size`` bytes remain before the 32-byte trailer at ``end``.

    Checked before each read, so a header that claims more data than the
    file holds fails by name instead of allocating what it claims.
    """
    left = end - fh.tell()
    if size > left:
        raise CheckpointError(
            f"{path}: {what} needs {size} bytes but only {max(left, 0)} remain before "
            "the config hash (truncated or corrupt checkpoint)"
        )


def load_checkpoint(path, expect_hash: bytes | None = None) -> tuple[dict[str, np.ndarray], bytes]:
    """Returns (tensors, stored config hash).

    Every length in the file is checked against the bytes left before it is
    read, and tensor data is read straight into its array, so loading never
    holds more than the file's own size.  A mismatching ``expect_hash`` only
    logs a warning: the tensors may still be usable under a different
    configuration.
    """
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size - 32
        if _read(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        version, count = struct.unpack("<II", _read(fh, 8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        for k in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, "name length"))
            _fits(path, fh, end, name_len + 1, f"tensor #{k} name and rank")
            try:
                name = _read(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor #{k} name is not UTF-8") from None
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            (rank,) = struct.unpack("<B", _read(fh, 1, "rank"))
            _fits(path, fh, end, 4 * rank, f"tensor {name!r} dims")
            dims = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, "dims"))
            n = math.prod(dims)  # a Python int: no int64 overflow
            _fits(path, fh, end, 4 * n, f"tensor {name!r} of dims {dims}")
            try:
                data = np.empty(dims, dtype="<f4")
            except ValueError:  # a zero dim beside dims whose product overflows
                raise CheckpointError(f"{path}: tensor {name!r} has unusable dims {dims}") from None
            if fh.readinto(data.reshape(-1).view(np.uint8)) != 4 * n:
                raise CheckpointError(f"truncated checkpoint while reading data of {name!r}")
            tensors[name] = data
        stored_hash = _read(fh, 32, "config hash")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after config hash")
    if expect_hash is not None and stored_hash != expect_hash:
        log.warning(
            "%s: config hash mismatch (stored %s..., expected %s...)",
            path, stored_hash.hex()[:12], expect_hash.hex()[:12],
        )
    return tensors, stored_hash


def restore_params(params, tensors: dict[str, np.ndarray]) -> None:
    """Copy loaded tensors into a model's parameters by name.

    Every tensor is checked before any is copied: a misshapen or non-finite
    tensor raises CheckpointError naming it, and so do missing and unknown
    tensors, all listed in one message; the model is left unchanged.
    """
    byname = {p.name: p for p in params}
    missing = sorted(set(byname) - set(tensors))
    unknown = sorted(set(tensors) - set(byname))
    if missing or unknown:
        raise CheckpointError(f"checkpoint missing tensors: {missing}; unknown tensors: {unknown}")
    for name, p in byname.items():
        arr = tensors[name]
        if arr.shape != p.value.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {arr.shape}, model expects {p.value.shape}"
            )
        if not all_finite(arr):
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
