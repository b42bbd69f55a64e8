"""Pretrain/auto-label/fine-tune/route orchestration."""

from dataclasses import replace

import numpy as np
import pytest

from b3sum.checkpoint import checkpoint_digest, load_checkpoint
from b3sum.classifier import ClassifierParams
from b3sum.config import RunConfig
from b3sum.corpus import build_vocab, synth_generate
from b3sum import layers, pipeline
from b3sum.pipeline import (
    StructureAwareModel,
    _train_steps,
    auto_label_corpus,
    finetune,
    new_summarizer,
    prepare_pairs,
    pretrain,
    open_manifest,
    structure_aware_summarize,
    update_manifest,
)
from b3sum.classifier import classify, classifier_input_tokens
from b3sum import summarizer
from b3sum.summarizer import prepare_pair
from b3sum.tape import NonFiniteError

from helpers import zero_params
from oracles import MixChainTape, per_step_teacher_forced, use_oracle_tape


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
    with pytest.raises(NonFiniteError, match=r"^training step 0: "
                                             r"non-finite gradient in parameter '"):
        _train_steps(model, [prepare_pair(p, vocab) for p in pairs[:4]], cfg, steps=2)


# Computed before the summarizer and the classifier shared one optimizer
# step and one batch order.  Pretraining takes 5 steps over 12 pairs in
# batches of 4, so it starts a second pass, and switches coverage on at
# step 3; fine-tuning takes 3 steps over 5 pairs, a short batch among them.
# The run uses oracles.per_step_teacher_forced and oracles.MixChainTape,
# the per-step path and the copy-mix chain these were computed on: the lstm,
# attention and copy-mix kernels keep every forward value but add or sum
# adjoints in another order, so the checkpoints round differently.
# test_summarizer's TestPerRowReferenceEquivalence and test_tape's
# test_copy_mix_matches_the_chain_it_replaced bound that.
PINNED_LOSSES = [
    "3.894705295562744", "3.917904853820801", "3.882148265838623", "4.837911128997803",
    "4.832944869995117", "3.8975167274475098", "3.8929972648620605", "3.888843536376953",
]
PINNED_BASE_SHA256 = "cf133a9a2e2189ce1bedb30f56f3e1e2e454bab3eafa2bd07f0559efc67ee591"
PINNED_TUNED_SHA256 = "8ba333b9b4bad6716e48f5459b8ce999baaf0c3907921f7e3ca0e35961f926e9"


def test_pretrain_then_finetune_is_bit_identical_to_the_pinned_run(corpus, tmp_path,
                                                                   monkeypatch):
    pairs, vocab = corpus
    cfg = _cfg(coverage_from_step=3)
    losses = []
    original = pipeline.train_batch

    def recording(*args, **kwargs):
        losses.append(original(*args, **kwargs))
        return losses[-1]

    monkeypatch.setattr(pipeline, "train_batch", recording)
    use_oracle_tape(monkeypatch, MixChainTape)
    monkeypatch.setattr(summarizer, "_teacher_forced", per_step_teacher_forced)
    pretrain(pairs, vocab, cfg, steps=5, out_path=tmp_path / "b.ckpt")
    finetune(tmp_path / "b.ckpt", pairs[:5], "parallel", vocab, cfg, steps=3,
             out_path=tmp_path / "p.ckpt")
    assert [repr(loss) for loss in losses] == PINNED_LOSSES
    assert checkpoint_digest(tmp_path / "b.ckpt") == PINNED_BASE_SHA256
    assert checkpoint_digest(tmp_path / "p.ckpt") == PINNED_TUNED_SHA256


def test_training_reads_the_first_max_src_len_article_tokens(corpus, tmp_path, monkeypatch):
    pairs, vocab = corpus
    cfg = _cfg(max_src_len=9)
    assert min(len(p.article) for p in pairs) > cfg.max_src_len
    batches = []
    original = pipeline.train_batch

    def recording(model, batch, *args, **kwargs):
        batches.append(batch)
        return original(model, batch, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_batch", recording)
    cut = [replace(p, article=p.article[: cfg.max_src_len]) for p in pairs]
    digests = []
    for run, train in (("long", pairs), ("cut", cut)):
        pretrain(train, vocab, cfg, steps=2, out_path=tmp_path / f"{run}-b.ckpt")
        _, info = finetune(tmp_path / f"{run}-b.ckpt", train[:5], "parallel", vocab, cfg,
                           steps=2, out_path=tmp_path / f"{run}-p.ckpt")
        digests.append((info["base_digest"], info["checkpoint_digest"]))
    assert digests[0] == digests[1]
    # 4 + 4 pretraining and 4 + 1 fine-tuning pairs, twice
    assert [len(ex.ext.src_ext_ids) for batch in batches for ex in batch] == [9] * 26


def test_held_out_loss_reads_the_first_max_src_len_article_tokens(corpus):
    pairs, vocab = corpus
    pairs, cfg = pairs[:4], _cfg(max_src_len=9)
    assert {len(p.article) for p in pairs} == {40}
    model = new_summarizer(vocab.size, cfg)
    cut = [replace(p, article=p.article[: cfg.max_src_len]) for p in pairs]
    loss = summarizer.corpus_loss(model, prepare_pairs(pairs, vocab, cfg))
    assert loss == summarizer.corpus_loss(model, [prepare_pair(p, vocab) for p in cut])
    assert loss != summarizer.corpus_loss(model, [prepare_pair(p, vocab) for p in pairs])


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


def test_loading_draws_nothing_and_restores_every_byte(corpus, tmp_path, monkeypatch):
    _, vocab = corpus
    cfg = _cfg(attn_dim=6, classifier_emb_dim=5, classifier_hidden_dim=7)
    rng = np.random.default_rng(4)
    saved = {"s": pipeline.new_summarizer(vocab.size, cfg),
             "c": pipeline.new_classifier(vocab.size, cfg)}
    for key, model in saved.items():
        for p in model.params():  # values no fresh model holds, so each must come from the file
            p.value[...] = rng.standard_normal(p.value.shape)
        pipeline.save_model(model, tmp_path / f"{key}.ckpt", cfg)
    # the parent commit's load: a drawn model, then restore_model
    drawn = {"s": pipeline.restore_model(pipeline.new_summarizer(vocab.size, cfg),
                                         tmp_path / "s.ckpt", cfg),
             "c": pipeline.restore_model(pipeline.new_classifier(vocab.size, cfg),
                                         tmp_path / "c.ckpt", cfg)}
    calls = []
    fill = layers._fill_uniform

    def counting(gen, segments):
        calls.extend(name for name, _ in segments)
        fill(gen, segments)

    monkeypatch.setattr(layers, "_fill_uniform", counting)
    loaded = {"s": pipeline.load_summarizer(tmp_path / "s.ckpt", vocab, cfg),
              "c": pipeline.load_classifier(tmp_path / "c.ckpt", vocab, cfg)}
    assert calls == []
    # the counting patch sees every draw a fresh model makes
    fresh = pipeline.new_summarizer(vocab.size, cfg)
    assert calls and set(calls) == {p.name for p in fresh.params()
                                    if p.value.min() != p.value.max()}
    for key in saved:
        for p, q, r in zip(loaded[key].params(), drawn[key].params(), saved[key].params(),
                           strict=True):
            assert p.name == q.name == r.name
            assert p.value.tobytes() == q.value.tobytes() == r.value.tobytes(), p.name


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
        assert open_manifest(path) == {"stages": {}}
        update_manifest(path, {"stage": "pretrain", "steps": 3})
        update_manifest(path, {"stage": "finetune-parallel", "steps": 1})
        manifest = update_manifest(path, {"stage": "pretrain", "steps": 4})
        assert manifest == open_manifest(path)
        assert manifest == {"stages": {"pretrain": {"stage": "pretrain", "steps": 4},
                                       "finetune-parallel": {"stage": "finetune-parallel",
                                                             "steps": 1}}}

    def test_a_failed_update_leaves_the_manifest_as_it_was(self, tmp_path):
        path = tmp_path / "pipeline.json"
        update_manifest(path, {"stage": "pretrain", "steps": 3})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            update_manifest(path, {"stage": "finetune-parallel", "bad": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pipeline.json"]
        assert open_manifest(path)["stages"]["pretrain"]["steps"] == 3
