"""Binary checkpoint format round trips and run-config validation."""

import logging
import os
import re
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from b3sum.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_digest,
    load_checkpoint,
    restore_params,
    save_checkpoint,
    tensor_map,
)
from b3sum.config import MAX_BEAM_SIZE, MAX_DECODE_LEN, RunConfig
from b3sum.corpus import read_json
from b3sum.tape import Parameter

from helpers import tiny_summarizer, traced_peak


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

    def test_save_syncs_the_directory_after_the_move(self, tmp_path, monkeypatch):
        # the move outlasts a crash only once the directory holding it is synced
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", (st.st_dev, st.st_ino) if stat.S_ISDIR(st.st_mode) else "file"))
            fsync(fd)

        def recording_replace(src, dst):
            replace(src, dst)
            events.append(("replace", os.fspath(dst)))

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        path = tmp_path / "m.ckpt"
        save_checkpoint(tensor_map(tiny_summarizer(seed=5).params()), path)
        d = os.stat(tmp_path)
        assert events == [("fsync", "file"), ("replace", os.fspath(path)),
                          ("fsync", (d.st_dev, d.st_ino))]

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

    @staticmethod
    def _header_only(dims, size: int) -> bytes:
        """A one-tensor header named 'w' with ``dims``, zero-padded to ``size`` bytes."""
        head = MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
        return head + b"\x00" * (size - len(head))

    @pytest.mark.parametrize("size, message", [
        (50, "tensor 'w' dims needs 8 bytes but only 2 remain"),
        (64, "tensor 'w' of dims \\(4096, 4096\\) needs 67108864 bytes but only 8 remain"),
    ])
    def test_oversized_header_fails_before_allocating(self, tmp_path, size, message):
        path = tmp_path / "claims-64mib.ckpt"
        path.write_bytes(self._header_only((4096, 4096), size))
        with traced_peak() as traced, pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        assert traced.peak < 64 * 1024

    def test_dims_whose_product_overflows_int64_are_rejected_by_name(self, tmp_path):
        path = tmp_path / "overflow.ckpt"
        dims = (65536,) * 4  # 2**64 elements: numpy's int64 product wraps to 0
        path.write_bytes(self._header_only(dims, 80))
        with pytest.raises(CheckpointError, match="tensor 'w' of dims"):
            load_checkpoint(path)

    def test_empty_tensor_with_overflowing_dims_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "zero-dim.ckpt"
        path.write_bytes(self._header_only((0, 1 << 31, 1 << 31, 1 << 31), 80))
        with pytest.raises(CheckpointError, match="tensor 'w' has unusable dims"):
            load_checkpoint(path)

    def test_name_longer_than_the_file_is_rejected(self, tmp_path):
        path = tmp_path / "long-name.ckpt"
        path.write_bytes(MAGIC + struct.pack("<IIH", 1, 1, 60000) + b"\x00" * 40)
        with pytest.raises(CheckpointError, match="tensor #0 name and rank needs 60001 bytes"):
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
        with pytest.raises(CheckpointError, match="missing"):
            restore_params([p, Parameter("v", np.ones((1, 1)))], {"w": p.value})
        with pytest.raises(CheckpointError, match=re.escape(
                "checkpoint missing tensors: ['v']; unknown tensors: ['extra']")):
            restore_params([p, Parameter("v", np.ones((1, 1)))], tensors)

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

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [-np.inf, 1.0], [np.inf, -np.inf]])
    def test_every_non_finite_kind_is_rejected_by_name(self, bad):
        p = Parameter("w", [[0.0, 0.0]])
        with pytest.raises(CheckpointError, match="tensor 'w' holds non-finite values"):
            restore_params([p], {"w": np.array([bad], dtype=np.float32)})
        np.testing.assert_array_equal(p.value, [[0.0, 0.0]])

    def test_a_vocab_20k_tensor_is_checked_without_a_value_sized_mask(self):
        table = np.full((20000, 256), 0.5, dtype=np.float32)
        p = Parameter("proj.V_out", np.zeros_like(table))
        with traced_peak() as traced:
            restore_params([p], {"proj.V_out": table})
        assert traced.peak < 256 * 1024  # an np.isfinite mask would be 5.12 MB
        assert p.value.tobytes() == table.tobytes()

    def test_a_vocab_20k_tensor_is_saved_without_a_copy(self, tmp_path):
        table = np.full((20000, 256), 0.5, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        with traced_peak() as traced:
            save_checkpoint({"proj.V_out": table}, path)
        assert traced.peak < 256 * 1024  # a bytes copy of the table would be 20.48 MB
        tensors, _ = load_checkpoint(path)
        assert tensors["proj.V_out"].tobytes() == table.tobytes()

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
        for removed in ({"vocab_size": 5}, {"min_count": 2}):
            with pytest.raises(ValueError, match="unknown config keys"):
                RunConfig.from_dict(removed)

    def test_hash_is_stable_and_sensitive(self):
        assert RunConfig().hash_hex() == RunConfig().hash_hex()
        assert RunConfig().hash_hex() != RunConfig(seed=1).hash_hex()

    def test_decode_keys_stay_out_of_the_hash(self, tmp_path, caplog):
        path = tmp_path / "m.ckpt"
        save_checkpoint({"w": np.ones((1, 1), dtype=np.float32)}, path, RunConfig().hash_bytes())
        decode_only = RunConfig(beam_size=8, max_decode_len=5, tau=0.1)
        with caplog.at_level(logging.WARNING):
            load_checkpoint(path, expect_hash=decode_only.hash_bytes())
        assert not any("hash mismatch" in r.message for r in caplog.records)
        with caplog.at_level(logging.WARNING):
            load_checkpoint(path, expect_hash=RunConfig(hidden_dim=8).hash_bytes())
        assert any("hash mismatch" in r.message for r in caplog.records)
        assert '"beam_size":8' in decode_only.canonical_json()  # still logged in full

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", 0), ("hidden_dim", 8.0), ("emb_dim", True), ("attn_dim", 0),
        ("hidden_dim", 4097), ("emb_dim", 10**8), ("attn_dim", 4097),
        ("classifier_emb_dim", 4097), ("classifier_hidden_dim", 10**8),
        ("lr", 0), ("lr", float("nan")), ("tau", 10**400), ("classifier_lr", -0.1), ("clip_norm", "2"),
        ("coverage_lambda", -1.0), ("coverage_from_step", -1), ("beam_size", None),
        ("max_decode_len", 0), ("max_src_len", 0), ("min_summary_len", -1),
        ("batch_size", 0), ("tau", -0.1), ("tau", 1.5), ("seed", -1),
        ("beam_size", 65), ("beam_size", 10**6), ("max_decode_len", 1921),
        ("max_decode_len", 10**9),
    ])
    def test_bad_value_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be "):
            RunConfig(**{key: value})

    def test_edge_values_accepted(self, tmp_path):
        cfg = RunConfig(attn_dim=None, coverage_from_step=0, min_summary_len=0, tau=0,
                        coverage_lambda=0, lr=1, seed=0)
        RunConfig(hidden_dim=4096, emb_dim=1, attn_dim=4096, classifier_emb_dim=4096,
                  classifier_hidden_dim=1)
        assert cfg.tau == 0 and cfg.lr == 1  # ints stay ints, so the hash is unchanged
        path = tmp_path / "c.json"
        path.write_text('{"tau": 1.0, "batch_size": -2}')
        with pytest.raises(ValueError, match="config key 'batch_size'"):
            RunConfig.from_dict(read_json(path, "config file"))

    def test_decode_bounds_are_accepted_and_stay_out_of_the_hash(self):
        widest = RunConfig(beam_size=MAX_BEAM_SIZE, max_decode_len=MAX_DECODE_LEN)
        assert (MAX_BEAM_SIZE, MAX_DECODE_LEN) == (64, 1920)
        assert widest.hash_hex() == RunConfig().hash_hex()

    def test_non_object_config_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="config file .*: not a JSON object"):
            RunConfig.from_dict(read_json(path, "config file"))


# -- fuzzing: bad bytes and bad values fail by name ----------------------------


def _sample_checkpoint_bytes() -> bytes:
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
               "bb": np.full((4,), 0.5, dtype=np.float32),
               "c": np.ones((3, 1), dtype=np.float32)}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.ckpt"
        save_checkpoint(tensors, path, RunConfig().hash_bytes())
        return path.read_bytes()


_SAMPLE = _sample_checkpoint_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(edits=[], header_edits=[(15, 5)], keep=68)  # rank 5: a zero dim beside huge ones
@given(edits=st.lists(st.tuples(st.integers(0, len(_SAMPLE) - 1), st.integers(0, 255)),
                      max_size=6),
       header_edits=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 255)), max_size=3),
       keep=st.integers(0, len(_SAMPLE)))
def test_load_checkpoint_on_mutated_bytes_fails_only_by_name(edits, header_edits, keep):
    data = bytearray(_SAMPLE)
    for pos, byte in edits + header_edits:
        data[pos] = byte
    data = bytes(data[:keep])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ckpt"
        path.write_bytes(data)
        with traced_peak() as traced:
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
    assert traced.peak <= len(data) + 64 * 1024


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(values=st.dictionaries(
    st.sampled_from(sorted(RunConfig.field_names())) | st.text(max_size=6) | st.integers(),
    _JSON_VALUES, max_size=4))
def test_config_from_random_values_fails_only_naming_a_key(values):
    try:
        RunConfig.from_dict(values)
    except ValueError as exc:
        assert any(repr(k) in str(exc) for k in values), str(exc)
