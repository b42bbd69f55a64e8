"""Binary checkpoint format round trips and run-config validation."""

import logging

import numpy as np
import pytest

from b3sum.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_digest,
    load_checkpoint,
    restore_params,
    save_checkpoint,
    tensor_map,
)
from b3sum.config import RunConfig
from b3sum.tape import Parameter

from helpers import tiny_summarizer


class TestCheckpointRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = tiny_summarizer(seed=5)
        path = tmp_path / "m.ckpt"
        cfg = RunConfig()
        save_checkpoint(tensor_map(model.params()), path, cfg.hash_bytes())
        tensors, stored = load_checkpoint(path)
        assert stored == cfg.hash_bytes()
        for p in model.params():
            assert tensors[p.name].tobytes() == p.value.tobytes()

    def test_restore_into_fresh_model(self, tmp_path):
        a = tiny_summarizer(seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(tensor_map(a.params()), path)
        b = tiny_summarizer(seed=99)
        tensors, _ = load_checkpoint(path)
        restore_params(b.params(), tensors)
        for pa, pb in zip(a.params(), b.params()):
            assert pa.value.tobytes() == pb.value.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 50)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + (99).to_bytes(4, "little") + (0).to_bytes(4, "little") + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model = tiny_summarizer(seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(tensor_map(model.params()), path)
        data = path.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "trunc.ckpt")

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint({"w": np.zeros((2, 2), dtype=np.float32)}, path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_hash_mismatch_warns(self, tmp_path, caplog):
        path = tmp_path / "m.ckpt"
        save_checkpoint({"w": np.ones((1, 1), dtype=np.float32)}, path, RunConfig().hash_bytes())
        other = RunConfig(seed=99)
        with caplog.at_level(logging.WARNING):
            load_checkpoint(path, expect_hash=other.hash_bytes())
        assert any("hash mismatch" in r.message for r in caplog.records)

    def test_strict_restore_flags_name_problems(self, tmp_path):
        p = Parameter("w", np.ones((2, 2)))
        path = tmp_path / "m.ckpt"
        save_checkpoint({"w": p.value, "extra": np.zeros((1, 1), dtype=np.float32)}, path)
        tensors, _ = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="unknown"):
            restore_params([p], tensors)
        restore_params([p], tensors, strict=False)
        with pytest.raises(CheckpointError, match="missing"):
            restore_params([p, Parameter("v", np.ones((1, 1)))], {"w": p.value})

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint({"w": np.ones((2, 3), dtype=np.float32)}, path)
        tensors, _ = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="shape"):
            restore_params([Parameter("w", np.ones((3, 2)))], tensors)

    def test_duplicate_names_rejected_on_save(self, tmp_path):
        p1, p2 = Parameter("w", [[1.0]]), Parameter("w", [[2.0]])
        with pytest.raises(CheckpointError, match="duplicate"):
            tensor_map([p1, p2])

    def test_digest_changes_with_content(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint({"w": np.ones((1, 1), dtype=np.float32)}, a)
        save_checkpoint({"w": np.zeros((1, 1), dtype=np.float32)}, b)
        assert checkpoint_digest(a) != checkpoint_digest(b)


class TestRunConfig:
    def test_defaults_mirror_training_setup(self):
        cfg = RunConfig()
        assert cfg.hidden_dim == 256
        assert cfg.emb_dim == 128
        assert cfg.classifier_emb_dim == 256
        assert cfg.lr == 0.15 and cfg.classifier_lr == 0.01
        assert cfg.clip_norm == 2.0
        assert cfg.max_src_len == 400 and cfg.min_summary_len == 70
        assert cfg.coverage_lambda == 1.0 and cfg.tau == 0.8 and cfg.beam_size == 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"hidden_dimension": 8})
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig().updated({"learningrate": 0.1})
        for removed in ({"vocab_size": 5}, {"min_count": 2}):
            with pytest.raises(ValueError, match="unknown config keys"):
                RunConfig.from_dict(removed)

    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"hidden_dim": 32, "seed": 5}')
        cfg = RunConfig.from_file(path)
        assert cfg.hidden_dim == 32 and cfg.seed == 5
        cfg2 = cfg.updated({"seed": 9, "lr": None})  # None means "not set"
        assert cfg2.seed == 9 and cfg2.lr == cfg.lr

    def test_hash_is_stable_and_sensitive(self):
        assert RunConfig().hash_hex() == RunConfig().hash_hex()
        assert RunConfig().hash_hex() != RunConfig(seed=1).hash_hex()

    def test_non_object_config_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="flat JSON object"):
            RunConfig.from_file(path)
