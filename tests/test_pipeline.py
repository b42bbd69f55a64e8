"""Pretrain/auto-label/fine-tune/route orchestration."""

import numpy as np
import pytest

from b3sum.checkpoint import checkpoint_digest, load_checkpoint
from b3sum.classifier import ClassifierParams
from b3sum.config import RunConfig
from b3sum.corpus import build_vocab, synth_generate
from b3sum.pipeline import (
    StructureAwareModel,
    _train_steps,
    auto_label_corpus,
    finetune,
    new_summarizer,
    pretrain,
    read_manifest,
    structure_aware_summarize,
    update_manifest,
)
from b3sum.classifier import classify, classifier_input_tokens
from b3sum.summarizer import prepare_pair
from b3sum.tape import NonFiniteError

from helpers import zero_params


def _cfg(**kw):
    base = dict(hidden_dim=8, emb_dim=8, classifier_emb_dim=8, classifier_hidden_dim=8,
                batch_size=4, seed=13, max_decode_len=12)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    pairs = synth_generate(seed=31, n=12, oov_rate=0.1)
    vocab = build_vocab(pairs, mode="cap", size=90)
    return pairs, vocab


class TestPretrain:
    def test_zero_steps_checkpoint_equals_initialization(self, corpus, tmp_path):
        pairs, vocab = corpus
        cfg = _cfg()
        model, info = pretrain(pairs, vocab, cfg, steps=0, out_path=tmp_path / "b.ckpt")
        fresh = new_summarizer(vocab.size, cfg)
        tensors, _ = load_checkpoint(tmp_path / "b.ckpt")
        for p in fresh.params():
            assert tensors[p.name].tobytes() == p.value.tobytes()

    def test_same_seed_bit_identical_checkpoints(self, corpus, tmp_path):
        pairs, vocab = corpus
        cfg = _cfg()
        pretrain(pairs, vocab, cfg, steps=4, out_path=tmp_path / "a.ckpt")
        pretrain(pairs, vocab, cfg, steps=4, out_path=tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_empty_corpus_rejected(self, corpus):
        _, vocab = corpus
        with pytest.raises(ValueError, match="empty"):
            pretrain([], vocab, _cfg(), steps=1)

    def test_info_records_provenance(self, corpus, tmp_path):
        pairs, vocab = corpus
        _, info = pretrain(pairs, vocab, _cfg(), steps=2, out_path=tmp_path / "b.ckpt")
        assert info["steps"] == 2
        assert info["config_hash"] == _cfg().hash_hex()
        assert info["checkpoint_digest"] == checkpoint_digest(tmp_path / "b.ckpt")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_step_is_named(corpus):
    # An inf embedding saturates the LSTM gates, so the loss stays finite
    # while inf * 0 turns its gradients into NaN.
    pairs, vocab = corpus
    cfg = _cfg()
    model = new_summarizer(vocab.size, cfg)
    model.embedding.weights.value[:, 0] = np.inf
    with pytest.raises(NonFiniteError, match=r"^training step 5: train_batch: "
                                             r"non-finite gradient in parameter '"):
        _train_steps(model, [prepare_pair(p, vocab) for p in pairs[:4]], cfg, steps=2,
                     start_step=5)


class TestAutoLabel:
    def _classifier(self, vocab):
        return ClassifierParams(vocab.size, emb_dim=8, hidden_dim=8, seed=2)

    def test_tau_zero_labels_everything(self, corpus):
        pairs, vocab = corpus
        par, seq, rest, counts = auto_label_corpus(self._classifier(vocab), vocab, pairs, 0.0)
        assert counts["rest"] == 0
        assert counts["parallel"] + counts["sequence"] == len(pairs)

    def test_tau_above_one_labels_nothing(self, corpus):
        pairs, vocab = corpus
        par, seq, rest, counts = auto_label_corpus(self._classifier(vocab), vocab, pairs, 1.0001)
        assert par == [] and seq == []
        assert len(rest) == len(pairs)

    def test_subsets_disjoint_and_cover(self, corpus):
        pairs, vocab = corpus
        par, seq, rest, _ = auto_label_corpus(self._classifier(vocab), vocab, pairs, 0.5)
        ids = [p.id for p in par + seq + rest]
        assert sorted(ids) == sorted(p.id for p in pairs)
        assert len(set(ids)) == len(ids)

    def test_assignment_matches_classifier_argmax(self, corpus):
        pairs, vocab = corpus
        model = self._classifier(vocab)
        par, seq, _, _ = auto_label_corpus(model, vocab, pairs, 0.0)
        for p in par:
            res = classify(model, vocab.encode(classifier_input_tokens(p, "summary")))
            assert res.label == "parallel"
        for p in seq:
            res = classify(model, vocab.encode(classifier_input_tokens(p, "summary")))
            assert res.label == "sequence"


class TestFinetune:
    def test_zero_steps_equals_base(self, corpus, tmp_path):
        pairs, vocab = corpus
        cfg = _cfg()
        base, _ = pretrain(pairs, vocab, cfg, steps=2, out_path=tmp_path / "b.ckpt")
        tuned, info = finetune(tmp_path / "b.ckpt", pairs[:4], "parallel", vocab, cfg,
                               steps=0, out_path=tmp_path / "p.ckpt")
        for pb, pt in zip(base.params(), tuned.params()):
            assert pb.value.tobytes() == pt.value.tobytes()
        assert info["base_digest"] == checkpoint_digest(tmp_path / "b.ckpt")

    def test_accumulators_reset_at_finetune_start(self, corpus, tmp_path):
        pairs, vocab = corpus
        cfg = _cfg()
        pretrain(pairs, vocab, cfg, steps=3, out_path=tmp_path / "b.ckpt")
        tuned, _ = finetune(tmp_path / "b.ckpt", pairs[:4], "parallel", vocab, cfg, steps=0)
        for p in tuned.params():
            np.testing.assert_array_equal(p.adagrad_acc, np.full_like(p.adagrad_acc, 0.1))

    def test_different_subsets_diverge(self, corpus, tmp_path):
        pairs, vocab = corpus
        cfg = _cfg()
        pretrain(pairs, vocab, cfg, steps=2, out_path=tmp_path / "b.ckpt")
        finetune(tmp_path / "b.ckpt", pairs[:4], "parallel", vocab, cfg, steps=1,
                 out_path=tmp_path / "p.ckpt")
        finetune(tmp_path / "b.ckpt", pairs[4:8], "sequence", vocab, cfg, steps=1,
                 out_path=tmp_path / "s.ckpt")
        assert checkpoint_digest(tmp_path / "p.ckpt") != checkpoint_digest(tmp_path / "s.ckpt")

    def test_empty_subset_error_mentions_tau(self, corpus, tmp_path):
        pairs, vocab = corpus
        pretrain(pairs, vocab, _cfg(), steps=0, out_path=tmp_path / "b.ckpt")
        with pytest.raises(ValueError, match="tau"):
            finetune(tmp_path / "b.ckpt", [], "parallel", vocab, _cfg(), steps=1)


class TestStructureAwareSummarize:
    def _sam(self, vocab, cfg, zero_classifier=True):
        classifier = ClassifierParams(vocab.size, emb_dim=8, hidden_dim=8, seed=4)
        if zero_classifier:
            zero_params(classifier.params())  # ties -> always parallel
        return StructureAwareModel(
            article_classifier=classifier,
            parallel_model=new_summarizer(vocab.size, cfg),
            sequence_model=new_summarizer(vocab.size, _cfg(seed=77)),
            vocab=vocab,
            classifier_vocab=vocab,
            provenance={"base": "x"},
        )

    def test_zero_weight_classifier_always_routes_parallel(self, corpus):
        pairs, vocab = corpus
        cfg = _cfg()
        sam = self._sam(vocab, cfg)
        for p in pairs[:4]:
            out = structure_aware_summarize(sam, p.article, cfg)
            assert out["chosen_label"] == "parallel"
            assert len(out["summary"]) == 3

    def test_routing_agrees_with_standalone_classifier(self, corpus):
        pairs, vocab = corpus
        cfg = _cfg()
        sam = self._sam(vocab, cfg, zero_classifier=False)
        for p in pairs:
            out = structure_aware_summarize(sam, p.article, cfg)
            res = classify(sam.article_classifier,
                           vocab.encode(p.article[: cfg.max_src_len]))
            assert out["chosen_label"] == res.label
            assert out["classifier_scores"]["parallel"] == pytest.approx(res.p_parallel)

    def test_empty_article_rejected(self, corpus):
        _, vocab = corpus
        with pytest.raises(ValueError, match="empty"):
            structure_aware_summarize(self._sam(vocab, _cfg()), [], _cfg())


class TestManifest:
    def test_update_and_read(self, tmp_path):
        path = tmp_path / "pipeline.json"
        update_manifest(path, "pretrain", {"steps": 3})
        manifest = update_manifest(path, "finetune-parallel", {"steps": 1})
        assert manifest["stages"]["pretrain"]["steps"] == 3
        assert read_manifest(path)["stages"]["finetune-parallel"]["steps"] == 1
        assert read_manifest(path)["tau_filter_hypothesis"] is True
