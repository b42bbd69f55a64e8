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

    def test_non_finite_tensor_rejected_by_name_before_any_copy(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint({"a": np.full((1, 2), 7.0, dtype=np.float32),
                         "b": np.array([[1.0, np.inf]], dtype=np.float32)}, path)
        tensors, _ = load_checkpoint(path)
        a, b = Parameter("a", [[0.0, 0.0]]), Parameter("b", [[0.0, 0.0]])
        with pytest.raises(CheckpointError, match="tensor 'b' holds non-finite values"):
            restore_params([a, b], tensors)
        np.testing.assert_array_equal(a.value, [[0.0, 0.0]])

    @pytest.mark.parametrize("bad", ["long-name", "bad-value"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, bad):
        path = tmp_path / "m.ckpt"
        save_checkpoint({"w": np.ones((2, 2), dtype=np.float32)}, path)
        before = path.read_bytes()
        if bad == "long-name":
            tensors = {"w": np.zeros((2, 2), dtype=np.float32), "n" * 65536: np.zeros((1, 1))}
            with pytest.raises(CheckpointError, match="longer than 65535"):
                save_checkpoint(tensors, path)
        else:
            # fails after the header and the first tensor have been written
            tensors = {"w": np.zeros((2, 2), dtype=np.float32), "v": "not a number"}
            with pytest.raises(ValueError):
                save_checkpoint(tensors, path)
        assert path.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.ckpt"]

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

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", 0), ("hidden_dim", 8.0), ("emb_dim", True), ("attn_dim", 0),
        ("lr", 0), ("lr", float("nan")), ("tau", 10**400), ("classifier_lr", -0.1), ("clip_norm", "2"),
        ("coverage_lambda", -1.0), ("coverage_from_step", -1), ("beam_size", None),
        ("max_decode_len", 0), ("max_src_len", 0), ("min_summary_len", -1),
        ("batch_size", 0), ("tau", -0.1), ("tau", 1.5), ("seed", -1),
    ])
    def test_bad_value_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be "):
            RunConfig(**{key: value})

    def test_edge_values_accepted(self, tmp_path):
        cfg = RunConfig(attn_dim=None, coverage_from_step=0, min_summary_len=0, tau=0,
                        coverage_lambda=0, lr=1, seed=0)
        assert cfg.tau == 0 and cfg.lr == 1  # ints stay ints, so the hash is unchanged
        path = tmp_path / "c.json"
        path.write_text('{"tau": 1.0, "batch_size": -2}')
        with pytest.raises(ValueError, match="config key 'batch_size'"):
            RunConfig.from_file(path)

    def test_non_object_config_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="flat JSON object"):
            RunConfig.from_file(path)
