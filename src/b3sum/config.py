"""Run configuration: one flat key set with defaults for every stage.

Config files are flat JSON objects; unknown keys are rejected so typos fail
loudly.  CLI flags override file values, and the merged keys are checked
once, so ``--set key=null`` resets a nullable key.  The sha256 of the
canonical JSON form, less the decode-time keys, is embedded in checkpoints
so a model can warn when reloaded under a configuration that would have
built or trained it differently.  Every value is checked for type and range
on construction, so a bad file or ``--set`` value fails with the key's name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _int_at_least(lo: int):
    return f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo


def _int_in(lo: int, hi: int):
    return f"an integer in [{lo}, {hi}]", lambda v: _is_int(v) and lo <= v <= hi


def _or_null(rule):
    desc, ok = rule
    return f"null or {desc}", lambda v: v is None or ok(v)


# Read only when decoding or routing: a checkpoint is the same model under
# any of these, so the config hash leaves them out.
DECODE_KEYS = frozenset({"beam_size", "max_decode_len", "tau"})

_POSITIVE = "a finite number > 0", lambda v: _is_real(v) and v > 0

# Largest model width a config may ask for: 16x the paper's hidden size of
# 256.  A wider model's vocabulary-wide tensors run to gigabytes, so such a
# value fails here by name instead of in an allocation.
MAX_DIM = 4096
_DIM = _int_in(1, MAX_DIM)

# Largest beam and decode length a config may ask for: 16x the paper's beam
# of 4 and its 120-token decode.  Each hypothesis scores a vocabulary-wide
# row at every step, so a beam of a million runs to gigabytes, and an
# untrained model that never emits the stop token decodes for
# max_decode_len steps: such values fail here by name.
MAX_BEAM_SIZE = 64
MAX_DECODE_LEN = 1920

# key -> (what the value must be, check)
_RULES = {
    "hidden_dim": _DIM,
    "emb_dim": _DIM,
    "attn_dim": _or_null(_DIM),
    "classifier_emb_dim": _DIM,
    "classifier_hidden_dim": _DIM,
    "lr": _POSITIVE,
    "classifier_lr": _POSITIVE,
    "clip_norm": _POSITIVE,
    "coverage_lambda": ("a finite number >= 0", lambda v: _is_real(v) and v >= 0),
    "coverage_from_step": _or_null(_int_at_least(0)),
    "beam_size": _int_in(1, MAX_BEAM_SIZE),
    "max_decode_len": _int_in(1, MAX_DECODE_LEN),
    "max_src_len": _int_at_least(1),
    "min_summary_len": _int_at_least(0),
    "batch_size": _int_at_least(1),
    "tau": ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1),
    "seed": _int_at_least(0),
}


def _canonical_json(values: dict) -> str:
    return json.dumps(values, sort_keys=True, separators=(",", ":"))


@dataclass
class RunConfig:
    hidden_dim: int = 256
    emb_dim: int = 128
    attn_dim: int | None = None  # defaults to hidden_dim
    classifier_emb_dim: int = 256
    classifier_hidden_dim: int = 256
    lr: float = 0.15
    classifier_lr: float = 0.01
    clip_norm: float = 2.0
    coverage_lambda: float = 1.0
    coverage_from_step: int | None = None  # None: coverage stays off
    beam_size: int = 4
    max_decode_len: int = 120
    max_src_len: int = 400
    min_summary_len: int = 70
    batch_size: int = 16
    tau: float = 0.8
    seed: int = 13

    def __post_init__(self):
        for f in dataclasses.fields(self):  # declaration order: the first bad key is named
            desc, ok = _RULES[f.name]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"config key {f.name!r} must be {desc}, got {value!r}")

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        unknown = set(values) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown, key=repr)}")
        return cls(**values)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return _canonical_json(self.to_dict())

    def hash_bytes(self) -> bytes:
        """sha256 of the canonical JSON of every key but DECODE_KEYS."""
        shaping = {k: v for k, v in self.to_dict().items() if k not in DECODE_KEYS}
        return hashlib.sha256(_canonical_json(shaping).encode("utf-8")).digest()

    def hash_hex(self) -> str:
        return self.hash_bytes().hex()
