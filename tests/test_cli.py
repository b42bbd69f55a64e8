"""Every subcommand end to end on a tiny corpus, plus exit-code contracts."""

import json

import numpy as np
import pytest

from b3sum.checkpoint import load_checkpoint, save_checkpoint
from b3sum.cli import main
from b3sum.corpus import load_jsonl, save_jsonl, synth_generate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, f"command failed: {err}\n{out}"
    return json.loads(out)


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
        pairs, _ = load_jsonl(path)
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
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, setting, message):
        corpus = tmp_path / "c.jsonl"
        save_jsonl(synth_generate(seed=1, n=2), corpus)
        code, _, err = run(capsys, "preprocess", "--corpus", str(corpus),
                           "--corpus-out", str(tmp_path / "o.jsonl"), "--set", setting)
        assert code == 1
        assert message in err
        assert not (tmp_path / "o.jsonl").exists()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus files shared by the pipeline-ish CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    save_jsonl(synth_generate(seed=5, n=16, oov_rate=0.1), root / "train.jsonl")
    save_jsonl(synth_generate(seed=6, n=6, oov_rate=0.1), root / "heldout.jsonl")
    return root


class TestCorpusCommands:
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
            pairs, _ = load_jsonl(ws / name)
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
