"""Run configuration: one flat key set with defaults for every stage.

Config files are flat JSON objects; unknown keys are rejected so typos fail
loudly.  CLI flags override file values.  The sha256 of the canonical JSON
form is embedded in checkpoints so a model can warn when reloaded under a
different configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


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
