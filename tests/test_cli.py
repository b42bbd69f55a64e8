"""Every subcommand end to end on a tiny corpus, plus exit-code contracts."""

import json
import logging
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from b3sum import metrics
from b3sum.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from b3sum.cli import _config, build_parser, main
from b3sum.corpus import load_jsonl, save_jsonl, synth_generate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, f"command failed: {err}\n{out}"
    return json.loads(out)


SRC = Path(__file__).resolve().parents[1] / "src"

TINY = ("--set", "hidden_dim=8", "--set", "emb_dim=8", "--set", "classifier_emb_dim=8",
        "--set", "classifier_hidden_dim=8", "--set", "batch_size=4",
        "--set", "max_decode_len=10", "--set", "min_summary_len=0")


class TestGenSynth:
    def test_deterministic_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_json(capsys, "gen-synth", "--seed", "7", "--n", "20", "--corpus-out", str(a))
        run_json(capsys, "gen-synth", "--seed", "7", "--n", "20", "--corpus-out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_mix_flag(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        run_json(capsys, "gen-synth", "--seed", "1", "--n", "10", "--mix", "1.0",
                 "--corpus-out", str(path))
        pairs = load_jsonl(path)
        assert all(p.label.value == "parallel" for p in pairs)


class TestUsageAndFailures:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-synth"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "build-vocab", "--corpus", str(tmp_path / "missing.jsonl"),
                           "--vocab-out", str(tmp_path / "v.json"))
        assert code == 1
        assert "error:" in err

    def test_evaluate_takes_no_config_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--system", "s.jsonl", "--reference", "r.jsonl", "--seed", "3"])
        assert exc.value.code == 2

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        save_jsonl(synth_generate(seed=1, n=2), corpus)
        code, _, err = run(capsys, "preprocess", "--corpus", str(corpus),
                           "--corpus-out", str(tmp_path / "o.jsonl"),
                           "--set", "not_a_key=3")
        assert code == 1
        assert "unknown config keys" in err

    @pytest.mark.parametrize("setting, message", [
        ("beam_size=abc", "config key 'beam_size' must be an integer >= 1, got 'abc'"),
        ("batch_size=0", "config key 'batch_size' must be an integer >= 1, got 0"),
        ("tau=1.5", "config key 'tau' must be a number in [0, 1], got 1.5"),
        ("lr=null", "config key 'lr' must be a finite number > 0, got None"),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, setting, message):
        corpus = tmp_path / "c.jsonl"
        save_jsonl(synth_generate(seed=1, n=2), corpus)
        code, _, err = run(capsys, "preprocess", "--corpus", str(corpus),
                           "--corpus-out", str(tmp_path / "o.jsonl"), "--set", setting)
        assert code == 1
        assert message in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-synth", "--n", "2", "--oov-rate", "3", "--corpus-out", "c.jsonl"],
         "--oov-rate must be a number in [0, 1], got 3.0"),
        (["gen-synth", "--n", "2", "--mix", "7", "--corpus-out", "c.jsonl"],
         "--mix must be a number in [0, 1], got 7.0"),
        (["gen-synth", "--n", "0", "--corpus-out", "c.jsonl"],
         "--n must be an integer >= 1, got 0"),
        (["build-vocab", "--corpus", "c.jsonl", "--size", "-3", "--vocab-out", "v.json"],
         "--size must be an integer >= 0, got -3"),
        (["build-vocab", "--corpus", "c.jsonl", "--mode", "min_count", "--min-count", "-4",
          "--vocab-out", "v.json"],
         "--min-count must be an integer >= 1, got -4"),
        (["pretrain", "--corpus", "c.jsonl", "--vocab", "v.json", "--steps", "0",
          "--checkpoint-out", "b.ckpt"],
         "--steps must be an integer >= 1, got 0"),
        (["pretrain", "--corpus", "c.jsonl", "--vocab", "v.json", "--steps", "-2",
          "--checkpoint-out", "b.ckpt"],
         "--steps must be an integer >= 1, got -2"),
        (["finetune", "--base", "b.ckpt", "--corpus", "c.jsonl", "--label", "parallel",
          "--vocab", "v.json", "--steps", "0", "--checkpoint-out", "p.ckpt"],
         "--steps must be an integer >= 1, got 0"),
        (["train-classifier", "--corpus", "c.jsonl", "--input", "summaries", "--vocab", "v.json",
          "--epochs", "0", "--checkpoint-out", "cls.ckpt"],
         "--epochs must be an integer >= 1, got 0"),
        (["tune-undersample", "--train", "c.jsonl", "--heldout", "h.jsonl", "--vocab", "v.json",
          "--epochs", "0", "--checkpoint-out", "cls.ckpt"],
         "--epochs must be an integer >= 1, got 0"),
        (["tune-undersample", "--train", "c.jsonl", "--heldout", "h.jsonl", "--vocab", "v.json",
          "--target-precision", "7", "--checkpoint-out", "cls.ckpt"],
         "--target-precision must be a number in [0, 1], got 7.0"),
    ])
    def test_out_of_range_flag_exits_1_naming_it(self, tmp_path, monkeypatch, capsys, argv,
                                                 message):
        # checked before any file is read, so the missing inputs are never opened
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_file_is_named(self, tmp_path, capsys):
        corpus, config = tmp_path / "c.jsonl", tmp_path / "config.json"
        save_jsonl(synth_generate(seed=1, n=2), corpus)
        config.write_text("nope")
        code, _, err = run(capsys, "preprocess", "--corpus", str(corpus),
                           "--corpus-out", str(tmp_path / "o.jsonl"), "--config", str(config))
        assert code == 1
        assert f"error: config file {config}: Expecting value" in err
        assert "Traceback" not in err

    def test_set_null_resets_a_nullable_key_from_the_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"coverage_from_step": 2, "attn_dim": 4, "seed": 1}')
        args = build_parser().parse_args([
            "preprocess", "--corpus", "c.jsonl", "--corpus-out", "o.jsonl",
            "--config", str(config), "--set", "coverage_from_step=null", "--seed", "3"])
        cfg = _config(args)
        assert cfg.coverage_from_step is None
        assert cfg.attn_dim == 4 and cfg.seed == 3


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus files shared by the pipeline-ish CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    save_jsonl(synth_generate(seed=5, n=16, oov_rate=0.1), root / "train.jsonl")
    save_jsonl(synth_generate(seed=6, n=6, oov_rate=0.1), root / "heldout.jsonl")
    return root


class TestCorpusCommands:
    def test_build_vocab_rejects_a_negative_size(self, workspace, tmp_path, capsys):
        code, _, err = run(capsys, "build-vocab", "--corpus", str(workspace / "train.jsonl"),
                           "--size", "-3", "--vocab-out", str(tmp_path / "v.json"))
        assert code == 1
        assert "error: --size must be an integer >= 0, got -3" in err
        assert not (tmp_path / "v.json").exists()

    def test_a_failure_prints_one_error_line(self, workspace, tmp_path):
        # A separate process: inside pytest the root logger already has
        # handlers, so logging.basicConfig would not add its stderr one.
        env = {k: v for k, v in os.environ.items() if k != "B3SUM_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "b3sum.cli", "build-vocab",
             "--corpus", str(workspace / "train.jsonl"), "--size", "-3",
             "--vocab-out", str(tmp_path / "v.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: --size must be an integer >= 0, got -3"]

    def test_build_vocab_and_preprocess(self, workspace, capsys):
        res = run_json(capsys, "build-vocab", "--corpus", str(workspace / "train.jsonl"),
                       "--mode", "cap", "--size", "100",
                       "--vocab-out", str(workspace / "vocab.json"))
        assert res["size"] > 5
        res = run_json(capsys, "preprocess", "--corpus", str(workspace / "train.jsonl"),
                       "--corpus-out", str(workspace / "prep.jsonl"), *TINY)
        assert res["kept"] == 16

    def test_stats_table(self, workspace, capsys):
        res = run_json(capsys, "stats", f"train={workspace / 'train.jsonl'}",
                       f"heldout={workspace / 'heldout.jsonl'}")
        total = sum(row["total"] for row in res.values())
        assert total == 22

    def test_stats_rejects_bad_argument(self, workspace, capsys):
        code, _, err = run(capsys, "stats", "just-a-path.jsonl")
        assert code == 1


class TestModelCommands:
    def test_full_pipeline(self, workspace, capsys):
        ws = workspace
        vocab = ws / "vocab.json"
        if not vocab.exists():
            run_json(capsys, "build-vocab", "--corpus", str(ws / "train.jsonl"),
                     "--vocab-out", str(vocab))

        res = run_json(capsys, "pretrain", "--corpus", str(ws / "train.jsonl"),
                       "--vocab", str(vocab), "--steps", "2",
                       "--checkpoint-out", str(ws / "base.ckpt"),
                       "--manifest", str(ws / "manifest.json"), *TINY)
        assert res["steps"] == 2

        res = run_json(capsys, "train-classifier", "--corpus", str(ws / "train.jsonl"),
                       "--input", "summaries", "--vocab", str(vocab),
                       "--heldout", str(ws / "heldout.jsonl"), "--epochs", "2",
                       "--checkpoint-out", str(ws / "cls.ckpt"), *TINY)
        assert len(res["epoch_losses"]) == 2
        assert res["heldout"]["n"] == 6

        res = run_json(capsys, "auto-label", "--classifier", str(ws / "cls.ckpt"),
                       "--vocab", str(vocab), "--corpus", str(ws / "train.jsonl"),
                       "--set", "tau=0.0",
                       "--out-parallel", str(ws / "par.jsonl"),
                       "--out-sequence", str(ws / "seq.jsonl"),
                       "--out-rest", str(ws / "rest.jsonl"), *TINY)
        assert res["parallel"] + res["sequence"] == 16
        # guarantee both fine-tune inputs are nonempty regardless of routing
        for name in ("par.jsonl", "seq.jsonl"):
            pairs = load_jsonl(ws / name)
            if not pairs:
                save_jsonl(synth_generate(seed=8, n=3, oov_rate=0.0), ws / name)

        for label, out in (("parallel", "par.ckpt"), ("sequence", "seq.ckpt")):
            res = run_json(capsys, "finetune", "--base", str(ws / "base.ckpt"),
                           "--corpus", str(ws / ("par.jsonl" if label == "parallel" else "seq.jsonl")),
                           "--label", label, "--vocab", str(vocab), "--steps", "1",
                           "--checkpoint-out", str(ws / out),
                           "--manifest", str(ws / "manifest.json"), *TINY)
            assert res["stage"] == f"finetune-{label}"

        manifest = json.loads((ws / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"pretrain", "finetune-parallel", "finetune-sequence"}

        res = run_json(capsys, "summarize", "--articles", str(ws / "heldout.jsonl"),
                       "--vocab", str(vocab), "--checkpoint", str(ws / "base.ckpt"),
                       "--summaries-out", str(ws / "sys_single.jsonl"), *TINY)
        assert res["written"] == 6

        res = run_json(capsys, "summarize", "--articles", str(ws / "heldout.jsonl"),
                       "--vocab", str(vocab),
                       "--classifier", str(ws / "cls.ckpt"),
                       "--classifier-vocab", str(vocab),
                       "--parallel-checkpoint", str(ws / "par.ckpt"),
                       "--sequence-checkpoint", str(ws / "seq.ckpt"),
                       "--summaries-out", str(ws / "sys_routed.jsonl"), *TINY)
        assert res["written"] == 6
        routed = (ws / "sys_routed.jsonl").read_text().splitlines()
        assert all("chosen_label" in json.loads(line) for line in routed)

    def test_summarize_rejects_non_finite_checkpoint(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        run_json(capsys, "build-vocab", "--corpus", str(workspace / "train.jsonl"),
                 "--vocab-out", str(vocab))
        run_json(capsys, "pretrain", "--corpus", str(workspace / "train.jsonl"),
                 "--vocab", str(vocab), "--steps", "1",
                 "--checkpoint-out", str(tmp_path / "base.ckpt"), *TINY)
        tensors, config_hash = load_checkpoint(tmp_path / "base.ckpt")
        tensors["proj.V_out"][3, 0] = np.nan
        save_checkpoint(tensors, tmp_path / "nan.ckpt", config_hash)
        code, _, err = run(capsys, "summarize", "--articles", str(workspace / "heldout.jsonl"),
                           "--vocab", str(vocab), "--checkpoint", str(tmp_path / "nan.ckpt"),
                           "--summaries-out", str(tmp_path / "sys.jsonl"), *TINY)
        assert code == 1
        assert "tensor 'proj.V_out' holds non-finite values" in err
        code, _, err = run(capsys, "finetune", "--base", str(tmp_path / "nan.ckpt"),
                           "--corpus", str(workspace / "train.jsonl"), "--label", "parallel",
                           "--vocab", str(vocab), "--steps", "1",
                           "--checkpoint-out", str(tmp_path / "tuned.ckpt"), *TINY)
        assert code == 1
        assert "tensor 'proj.V_out' holds non-finite values" in err
        assert not (tmp_path / "tuned.ckpt").exists()

    @pytest.fixture(scope="class")
    def pretrained(self, workspace, tmp_path_factory):
        """(vocab path, one-step checkpoint path) built with TINY."""
        root = tmp_path_factory.mktemp("pretrained")
        vocab, ckpt = root / "vocab.json", root / "base.ckpt"
        assert main(["build-vocab", "--corpus", str(workspace / "train.jsonl"),
                     "--vocab-out", str(vocab)]) == 0
        assert main(["pretrain", "--corpus", str(workspace / "train.jsonl"), "--vocab", str(vocab),
                     "--steps", "1", "--checkpoint-out", str(ckpt), *TINY]) == 0
        return vocab, ckpt

    def _summarize(self, capsys, workspace, tmp_path, vocab, ckpt, *extra):
        return run(capsys, "summarize", "--articles", str(workspace / "heldout.jsonl"),
                   "--vocab", str(vocab), "--checkpoint", str(ckpt),
                   "--summaries-out", str(tmp_path / "sys.jsonl"), *TINY, *extra)

    def test_summarize_rejects_a_header_larger_than_its_file(self, workspace, pretrained,
                                                              tmp_path, capsys):
        bad = tmp_path / "claims-64mib.ckpt"
        head = MAGIC + struct.pack("<IIHcB2I", 1, 1, 1, b"w", 2, 4096, 4096)
        bad.write_bytes(head + b"\x00" * (50 - len(head)))
        code, _, err = self._summarize(capsys, workspace, tmp_path, pretrained[0], bad)
        assert code == 1
        assert "tensor 'w' dims needs 8 bytes but only 2 remain" in err

    def test_summarize_warns_on_model_keys_only(self, workspace, pretrained, tmp_path, capsys,
                                                caplog):
        vocab, ckpt = pretrained
        with caplog.at_level(logging.WARNING):
            code, _, err = self._summarize(capsys, workspace, tmp_path, vocab, ckpt,
                                           "--set", "beam_size=8", "--set", "tau=0.5")
        assert code == 0, err
        assert not any("hash mismatch" in r.message for r in caplog.records)
        with caplog.at_level(logging.WARNING):
            code, _, _ = self._summarize(capsys, workspace, tmp_path, vocab, ckpt,
                                         "--set", "hidden_dim=6")
        assert code == 1  # the tensors no longer fit the model
        assert any("hash mismatch" in r.message for r in caplog.records)

    @pytest.mark.parametrize("content, message", [
        ("{}", 'needs an object with a "tokens" list of strings'),
        ("[1]", "not a JSON object"),
        ('{"tokens": 5}', 'needs an object with a "tokens" list of strings'),
    ], ids=["no-tokens-key", "not-an-object", "tokens-not-a-list"])
    def test_summarize_rejects_a_malformed_vocabulary_file(self, workspace, pretrained,
                                                           tmp_path, capsys, content, message):
        bad = tmp_path / "bad-vocab.json"
        bad.write_text(content)
        code, _, err = self._summarize(capsys, workspace, tmp_path, bad, pretrained[1])
        assert code == 1
        assert f"error: vocabulary file {bad}: {message}" in err

    @pytest.mark.parametrize("content, message", [
        ("[]", "not a JSON object"),
        ('{"stages": 5}', '"stages" is not a JSON object'),
    ], ids=["list", "stages-not-an-object"])
    def test_pretrain_rejects_a_malformed_manifest(self, workspace, pretrained, tmp_path,
                                                   capsys, content, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content)
        code, _, err = run(capsys, "pretrain", "--corpus", str(workspace / "train.jsonl"),
                           "--vocab", str(pretrained[0]), "--steps", "1",
                           "--checkpoint-out", str(tmp_path / "base.ckpt"),
                           "--manifest", str(manifest), *TINY)
        assert code == 1
        assert f"error: manifest {manifest}: {message}" in err
        assert "Traceback" not in err
        assert manifest.read_text() == content

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_a_bad_manifest_fails_before_training(self, workspace, pretrained, tmp_path,
                                                  capsys, command):
        vocab, base = pretrained
        manifest, out = tmp_path / "manifest.json", tmp_path / "out.ckpt"
        manifest.write_text("[]")
        extra = ("--base", str(base), "--label", "parallel") if command == "finetune" else ()
        code, _, err = run(capsys, command, *extra, "--corpus", str(workspace / "train.jsonl"),
                           "--vocab", str(vocab), "--steps", "1", "--checkpoint-out", str(out),
                           "--manifest", str(manifest), *TINY)
        assert code == 1
        assert f"error: manifest {manifest}: not a JSON object" in err
        assert not out.exists()

    def test_summarize_requires_model_flags(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--articles", "x.jsonl", "--vocab", "v.json",
                  "--summaries-out", "o.jsonl"])
        assert exc.value.code == 2


class TestEvaluationCommands:
    @pytest.fixture()
    def reference(self, tmp_path):
        pairs = synth_generate(seed=9, n=4)
        path = tmp_path / "ref.jsonl"
        save_jsonl(pairs, path)
        return path, pairs

    def _write_system(self, tmp_path, pairs, permute=None):
        path = tmp_path / "sys.jsonl"
        with open(path, "w") as fh:
            for p in pairs:
                sents = [" ".join(s) for s in p.summary]
                if permute:
                    sents = [sents[i] for i in permute]
                fh.write(json.dumps({"id": p.id, "summary": sents}) + "\n")
        return path

    def test_evaluate_identical_files_scores_one(self, tmp_path, capsys, reference):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs)
        res = run_json(capsys, "evaluate", "--system", str(sys_path),
                       "--reference", str(ref_path),
                       "--per-doc", str(tmp_path / "docs.jsonl"))
        for m in ("rouge_1", "rouge_2", "rouge_l"):
            assert res["mean_f1"][m] == pytest.approx(1.0)

    def test_align_eval_permuted_fixture(self, tmp_path, capsys, reference):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs, permute=(1, 0, 2))
        res = run_json(capsys, "align-eval", "--system", str(sys_path),
                       "--reference", str(ref_path))
        assert all(d["pattern"] == "213" for d in res["documents"])
        assert res["histogram"]["213"]["count"] == 4

    def test_align_eval_and_report_share_one_histogram(self, tmp_path, capsys, reference):
        ref_path, pairs = reference
        sys_path = tmp_path / "sys.jsonl"
        with open(sys_path, "w") as fh:
            for p, perm in zip(pairs, [(0, 1, 2), (1, 0, 2), (1, 0, 2), (2, 0, 1)]):
                sents = [" ".join(p.summary[i]) for i in perm]
                fh.write(json.dumps({"id": p.id, "summary": sents}) + "\n")
        aligned = run_json(capsys, "align-eval", "--system", str(sys_path),
                           "--reference", str(ref_path))
        run_json(capsys, "evaluate", "--system", str(sys_path), "--reference", str(ref_path),
                 "--per-doc", str(tmp_path / "docs.jsonl"))
        report = run_json(capsys, "report", "--scores", str(tmp_path / "docs.jsonl"),
                          "--format", "json")
        expected = metrics.pattern_histogram(d["pattern"] for d in aligned["documents"])
        assert len(expected) == 3 and max(h["count"] for h in expected.values()) == 2
        assert aligned["histogram"] == report["pattern_histogram"] == expected

    def test_report_formats(self, tmp_path, capsys, reference):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs)
        run_json(capsys, "evaluate", "--system", str(sys_path), "--reference", str(ref_path),
                 "--per-doc", str(tmp_path / "docs.jsonl"))
        code, out, _ = run(capsys, "report", "--scores", str(tmp_path / "docs.jsonl"),
                           "--format", "tsv")
        assert code == 0
        assert "subset\tposition" in out
        code, out, _ = run(capsys, "report", "--scores", str(tmp_path / "docs.jsonl"),
                           "--format", "pretty")
        assert code == 0 and "alignment patterns" in out

    @pytest.mark.parametrize("bad_line, message", [
        (b"5\n", "line 2: line is not a JSON object"),
        (b'{"id": "x", "summary": ["a", "b\xff", "c"]}\n', "line 2: line is not valid UTF-8"),
    ], ids=["not-an-object", "undecodable"])
    def test_evaluate_names_the_bad_system_line(self, tmp_path, capsys, reference,
                                                bad_line, message):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs)
        lines = sys_path.read_bytes().splitlines(keepends=True)
        sys_path.write_bytes(lines[0] + bad_line + b"".join(lines[1:]))
        code, _, err = run(capsys, "evaluate", "--system", str(sys_path),
                           "--reference", str(ref_path))
        assert code == 1
        assert f"error: {sys_path}: {message}" in err

    def test_evaluate_names_the_bad_reference_line(self, tmp_path, capsys, reference):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs)
        lines = ref_path.read_bytes().splitlines(keepends=True)
        ref_path.write_bytes(lines[0] + b"5\n" + b"".join(lines[1:]))
        code, _, err = run(capsys, "evaluate", "--system", str(sys_path),
                           "--reference", str(ref_path))
        assert code == 1
        assert f"error: {ref_path}: line 2: line is not a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: 5, "line is not a JSON object"),
        (lambda rec: {k: v for k, v in rec.items() if k != "positions"},
         "needs an 'id' and a list of 3 'positions'"),
        (lambda rec: rec | {"positions": rec["positions"][:2]},
         "needs an 'id' and a list of 3 'positions'"),
    ], ids=["not-an-object", "no-positions", "two-positions"])
    def test_report_names_the_bad_scores_line(self, tmp_path, capsys, reference, edit, message):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs)
        scores = tmp_path / "docs.jsonl"
        run_json(capsys, "evaluate", "--system", str(sys_path), "--reference", str(ref_path),
                 "--per-doc", str(scores))
        lines = scores.read_bytes().splitlines(keepends=True)
        bad = json.dumps(edit(json.loads(lines[1]))).encode() + b"\n"
        scores.write_bytes(lines[0] + bad + b"".join(lines[2:]))
        code, out, err = run(capsys, "report", "--scores", str(scores))
        assert code == 1 and out == ""
        assert f"error: {scores}: line 2: {message}" in err
        assert "Traceback" not in err

    def test_missing_system_document_fails(self, tmp_path, capsys, reference):
        ref_path, pairs = reference
        sys_path = self._write_system(tmp_path, pairs[:2])
        code, _, err = run(capsys, "evaluate", "--system", str(sys_path),
                           "--reference", str(ref_path))
        assert code == 1 and "missing document" in err


def test_result_goes_to_out_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, _ = run(capsys, "gen-synth", "--seed", "3", "--n", "2",
                          "--corpus-out", str(tmp_path / "c.jsonl"), "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["written"] == 2
