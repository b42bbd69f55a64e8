"""Structure classifier: encoding, decision rule, training, under-sampling."""

import hashlib

import numpy as np
import pytest

from b3sum import classifier
from b3sum.classifier import (
    ClassifierParams,
    ClassifierTrainConfig,
    classifier_input_tokens,
    classify,
    encode_text,
    prepare_labeled,
    train_classifier,
    undersample_tune,
)
from b3sum.corpus import Vocabulary, build_vocab, split_pairs, synth_generate
from b3sum.layers import lstm_step
from b3sum.tape import NonFiniteError, Tape, optimizer_step

from helpers import zero_params


def _tiny(vocab_size=10, seed=0):
    return ClassifierParams(vocab_size, emb_dim=6, hidden_dim=5, seed=seed)


class TestEncodeText:
    def test_zero_weights_give_zero_vector(self):
        model = _tiny()
        zero_params(model.params())
        t = Tape()
        h = encode_text(t, model, [1, 2, 3])
        np.testing.assert_allclose(t.value(h), np.zeros((1, 10)), atol=1e-7)

    def test_single_token_runs_both_directions_once(self):
        model = _tiny(seed=2)
        t = Tape()
        h = t.value(encode_text(t, model, [3]))
        assert h.shape == (1, 10)
        # both halves are one step of their cell over the same embedding
        t2 = Tape()
        from b3sum.layers import embed_rows

        x = embed_rows(t2, model.embedding, [3])[0]
        hf, cf = model.encoder.forward_cell.zero_state(t2)
        hb, cb = model.encoder.backward_cell.zero_state(t2)
        hf, _ = lstm_step(t2, model.encoder.forward_cell, x, hf, cf)
        hb, _ = lstm_step(t2, model.encoder.backward_cell, x, hb, cb)
        np.testing.assert_array_equal(h[:, :5], t2.value(hf))
        np.testing.assert_array_equal(h[:, 5:], t2.value(hb))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            encode_text(Tape(), _tiny(), [])

    def test_reversed_input_swaps_halves_with_shared_cells(self):
        model = _tiny(seed=4)
        # make both directions share identical weights
        for wf, wb in zip(model.encoder.forward_cell.params(),
                          model.encoder.backward_cell.params()):
            wb.value[...] = wf.value
        ids = [1, 5, 2, 7]
        t = Tape()
        h = t.value(encode_text(t, model, ids))
        t2 = Tape()
        h_rev = t2.value(encode_text(t2, model, ids[::-1]))
        np.testing.assert_array_equal(h[:, :5], h_rev[:, 5:])
        np.testing.assert_array_equal(h[:, 5:], h_rev[:, :5])


class TestClassify:
    def test_zero_weights_tie_breaks_to_parallel(self):
        model = _tiny()
        zero_params(model.params())
        res = classify(model, [1, 2])
        assert res.p_parallel == res.p_sequence == pytest.approx(0.5)
        assert res.label == "parallel"

    def test_scores_are_probabilities(self):
        model = _tiny(seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            ids = list(rng.integers(0, 10, size=rng.integers(1, 8)))
            res = classify(model, ids)
            assert 0.0 < res.p_parallel < 1.0
            assert 0.0 < res.p_sequence < 1.0
            assert res.p_parallel + res.p_sequence == pytest.approx(1.0, abs=1e-6)

    def test_label_is_argmax_and_monotone_invariant(self):
        model = _tiny(seed=5)
        for ids in ([1], [2, 3], [4, 5, 6, 7]):
            res = classify(model, ids)
            expected = "parallel" if res.p_parallel >= res.p_sequence else "sequence"
            assert res.label == expected
            # any strictly monotone transform preserves the argmax
            for f in (np.exp, lambda x: x ** 3, lambda x: 2 * x + 1):
                pair = np.array([res.p_parallel, res.p_sequence])
                assert np.argmax(f(pair)) == np.argmax(pair)

    def test_confidence(self):
        model = _tiny(seed=6)
        res = classify(model, [1, 2, 3])
        assert res.confidence == max(res.p_parallel, res.p_sequence)


class TestInputPreparation:
    def test_summary_input_joins_with_boundary(self):
        pairs = synth_generate(seed=1, n=1)
        toks = classifier_input_tokens(pairs[0], "summary")
        assert toks.count("<sb>") == 2

    def test_article_input_truncates(self):
        pairs = synth_generate(seed=1, n=1)
        toks = classifier_input_tokens(pairs[0], "article", max_src_len=5)
        assert toks == pairs[0].article[:5]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="input_kind"):
            classifier_input_tokens(synth_generate(seed=1, n=1)[0], "title")

    def test_prepare_labeled_requires_labels(self):
        pair = synth_generate(seed=1, n=1)[0]
        pair.label = None
        with pytest.raises(ValueError, match="label"):
            prepare_labeled([pair], Vocabulary(["x"]), "summary")


def _labeled_split(n=120, seed=8, mix=0.5):
    pairs = synth_generate(seed=seed, n=n, oov_rate=0.0, structure_mix=mix)
    train, dev, _ = split_pairs(pairs, sizes=(n - n // 4, n // 4, 0), seed=1)
    vocab = build_vocab(pairs, mode="min_count", min_count=2)
    return (
        prepare_labeled(train, vocab, "summary"),
        prepare_labeled(dev, vocab, "summary"),
        vocab,
    )


class TestTraining:
    def test_single_class_rejected(self):
        pairs = synth_generate(seed=2, n=8, structure_mix=1.0)
        vocab = build_vocab(pairs, mode="cap", size=50)
        examples = prepare_labeled(pairs, vocab, "summary")
        model = ClassifierParams(vocab.size, 8, 8)
        with pytest.raises(ValueError, match="single class"):
            train_classifier(model, examples, None, ClassifierTrainConfig(epochs=1))

    def test_loss_decreases_early(self):
        train, dev, vocab = _labeled_split()
        cfg = ClassifierTrainConfig(emb_dim=16, hidden_dim=16, lr=0.05,
                                    batch_size=16, epochs=6, seed=3)
        model = ClassifierParams(vocab.size, cfg.emb_dim, cfg.hidden_dim, seed=3)
        report = train_classifier(model, train, dev, cfg)
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        assert report.heldout is not None

    def test_separable_corpus_reaches_high_f1(self):
        train, dev, vocab = _labeled_split(n=160, mix=0.6)
        cfg = ClassifierTrainConfig(emb_dim=16, hidden_dim=16, lr=0.3,
                                    batch_size=8, epochs=8, seed=5)
        model = ClassifierParams(vocab.size, cfg.emb_dim, cfg.hidden_dim, seed=5)
        report = train_classifier(model, train, dev, cfg)
        f1s = [report.heldout["per_class"][c]["f1"] for c in ("parallel", "sequence")]
        assert sum(f1s) / 2 >= 0.9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_raises_before_any_update(self):
        # An inf embedding column saturates the gates: without the guard,
        # training ran on and left every parameter NaN.
        train = _token_separable(n_major=6, n_minor=4)
        model = ClassifierParams(10, emb_dim=6, hidden_dim=5, seed=1)
        model.embedding.weights.value[:, 0] = np.inf
        before = {p.name: p.value.tobytes() for p in model.params()}
        with pytest.raises(NonFiniteError,
                           match=r"^classifier step 0: non-finite gradient in parameter 'cls\."):
            train_classifier(model, train, None, ClassifierTrainConfig(batch_size=4, epochs=1))
        assert {p.name: p.value.tobytes() for p in model.params()} == before
        assert all(p._grad is None and p._acc is None for p in model.params())

    def test_a_non_finite_step_is_named_by_its_step_across_epochs(self, monkeypatch):
        # 10 examples in batches of 5: two steps per epoch, so the 4th
        # optimizer step is step 3, the second of epoch 2
        calls = []

        def failing_fourth(*args, **kwargs):
            calls.append(args)
            if len(calls) == 4:
                raise NonFiniteError("non-finite loss nan")
            return optimizer_step(*args, **kwargs)

        monkeypatch.setattr(classifier, "optimizer_step", failing_fourth)
        with pytest.raises(NonFiniteError, match=r"^classifier step 3: non-finite loss nan$"):
            train_classifier(_tiny(), _token_separable(n_major=6, n_minor=4), None,
                             ClassifierTrainConfig(batch_size=5, epochs=3))
        assert len(calls) == 4


# Computed before train_classifier and the summarizer shared one optimizer
# step and one batch order: epoch losses as exact reprs, and a sha256 over
# every parameter's bytes in params() order.  30 examples in batches of 7
# end each epoch on a short batch.
PINNED_EPOCH_LOSSES = ["0.6936418175697326", "0.6895285010337829", "0.6843534231185913"]
PINNED_PARAMS_SHA256 = "5c23acc20bff8ce5a12f6831f1716a5f3ba9176ab12c0138d4702ccc525567b1"


def test_training_is_bit_identical_to_the_pinned_run():
    train, _, vocab = _labeled_split(n=40)
    cfg = ClassifierTrainConfig(emb_dim=8, hidden_dim=8, lr=0.1, batch_size=7, epochs=3, seed=4)
    model = ClassifierParams(vocab.size, cfg.emb_dim, cfg.hidden_dim, seed=cfg.seed)
    report = train_classifier(model, train, None, cfg)
    assert len(train) == 30
    assert [repr(loss) for loss in report.epoch_losses] == PINNED_EPOCH_LOSSES
    digest = hashlib.sha256()
    for p in model.params():
        digest.update(p.value.tobytes())
    assert digest.hexdigest() == PINNED_PARAMS_SHA256


def _token_separable(n_major=40, n_minor=20, seed=0):
    """Class decided by the first token: 5 -> parallel, 6 -> sequence."""
    from b3sum.classifier import LabeledExample

    rng = np.random.default_rng(seed)
    examples = [
        LabeledExample(ids=[5, int(rng.integers(2, 8)), 7], gold=0) for _ in range(n_major)
    ] + [
        LabeledExample(ids=[6, int(rng.integers(2, 8)), 7], gold=1) for _ in range(n_minor)
    ]
    return examples


class TestUndersample:
    def test_separable_data_qualifies_at_full_ratio(self):
        train = _token_separable(40, 20, seed=0)
        dev = _token_separable(10, 10, seed=1)
        cfg = ClassifierTrainConfig(emb_dim=8, hidden_dim=8, lr=0.5,
                                    batch_size=8, epochs=10, seed=7)
        result = undersample_tune(train, dev, cfg, vocab_size=10, target_precision=0.8)
        assert result.qualified
        assert result.ratio == 1.0
        for cls in ("parallel", "sequence"):
            assert result.heldout["per_class"][cls]["precision"] > 0.8
        assert len(result.trials) == 10

    def test_single_class_heldout_rejected(self):
        train = _token_separable(8, 6)
        one_class = [ex for ex in train if ex.gold == 0]
        with pytest.raises(ValueError, match="both classes"):
            undersample_tune(train, one_class, ClassifierTrainConfig(epochs=1), 10)
