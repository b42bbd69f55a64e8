"""Run configuration: one flat key set with defaults for every stage.

Config files are flat JSON objects; unknown keys are rejected so typos fail
loudly.  CLI flags override file values.  The sha256 of the canonical JSON
form is embedded in checkpoints so a model can warn when reloaded under a
different configuration.  Every value is checked for type and range on
construction, so a bad file or ``--set`` value fails with the key's name.
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


def _or_null(rule):
    desc, ok = rule
    return f"null or {desc}", lambda v: v is None or ok(v)


_POSITIVE = "a finite number > 0", lambda v: _is_real(v) and v > 0

# key -> (what the value must be, check)
_RULES = {
    "hidden_dim": _int_at_least(1),
    "emb_dim": _int_at_least(1),
    "attn_dim": _or_null(_int_at_least(1)),
    "classifier_emb_dim": _int_at_least(1),
    "classifier_hidden_dim": _int_at_least(1),
    "lr": _POSITIVE,
    "classifier_lr": _POSITIVE,
    "clip_norm": _POSITIVE,
    "coverage_lambda": ("a finite number >= 0", lambda v: _is_real(v) and v >= 0),
    "coverage_from_step": _or_null(_int_at_least(0)),
    "beam_size": _int_at_least(1),
    "max_decode_len": _int_at_least(1),
    "max_src_len": _int_at_least(1),
    "min_summary_len": _int_at_least(0),
    "batch_size": _int_at_least(1),
    "tau": ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1),
    "seed": _int_at_least(0),
}


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
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("config file must hold a flat JSON object")
        return cls.from_dict(obj)

    def updated(self, overrides: dict) -> "RunConfig":
        values = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(values) - self.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return dataclasses.replace(self, **values)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash_bytes(self) -> bytes:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).digest()

    def hash_hex(self) -> str:
        return self.hash_bytes().hex()
