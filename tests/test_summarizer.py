"""Attention, copy mixture, coverage, teacher-forced training, decoding."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b3sum import pipeline, summarizer
from b3sum import tape as tape_mod
from b3sum.classifier import ClassifierParams, ClassifierTrainConfig, LabeledExample, train_classifier
from b3sum.config import RunConfig
from b3sum.corpus import NewsPair, Vocabulary
from b3sum.summarizer import (
    ExtendedVocab,
    SummarizerParams,
    attend,
    corpus_loss,
    coverage_penalty,
    coverage_update,
    decode,
    final_distribution,
    generation_prob,
    prepare_pair,
    sequence_loss,
    token_prediction_accuracy,
    train_batch,
    vocab_distribution,
)
from b3sum.tape import Kernel, NonFiniteError, Tape, zero_grads

from helpers import tiny_corpus, tiny_summarizer, zero_params
from oracles import DenseTape, per_row_teacher_forced


def _attention_inputs(tape, model, n=4, seed=0):
    rng = np.random.default_rng(seed)
    h = tape.leaf(rng.uniform(-1, 1, size=(n, 2 * model.hidden_dim)))
    s = tape.leaf(rng.uniform(-1, 1, size=(1, 2 * model.hidden_dim)))
    cov = tape.leaf(np.zeros((1, n), dtype=tape.dtype))
    return h, s, cov


def _features(tape, model, h):
    """The encoder features h·W_hᵀ that ``encode_article`` hands to ``attend``."""
    return tape.matmul(h, tape.param(model.attn_w_enc), transpose_b=True)


class TestExtendedVocab:
    def test_oovs_ordered_unique_and_disjoint(self):
        vocab = Vocabulary(["a", "b"])
        ext = ExtendedVocab(vocab, ["a", "z", "q", "z", "b"])
        assert ext.doc_oovs == ["z", "q"]
        assert ext.size == vocab.size + 2
        assert ext.id("z") == vocab.size
        assert ext.token(vocab.size + 1) == "q"

    def test_non_source_oov_maps_to_unk(self):
        ext = ExtendedVocab(Vocabulary(["a"]), ["a"])
        assert ext.id("mystery") == Vocabulary.UNK


class TestAttend:
    def test_single_position_attends_fully(self):
        model = tiny_summarizer()
        t = Tape()
        h, s, cov = _attention_inputs(t, model, n=1)
        _, a, h_star = attend(t, model, h, _features(t, model, h), s, cov, use_coverage=True)
        np.testing.assert_allclose(t.value(a), [[1.0]])
        np.testing.assert_array_equal(t.value(h_star), t.value(h))

    def test_zero_params_give_uniform_attention_and_mean_context(self):
        model = tiny_summarizer()
        zero_params([model.attn_v, model.attn_w_enc, model.attn_w_state,
                     model.attn_bias, model.attn_w_cov])
        t = Tape()
        h, s, cov = _attention_inputs(t, model, n=5)
        _, a, h_star = attend(t, model, h, _features(t, model, h), s, cov, use_coverage=False)
        np.testing.assert_allclose(t.value(a), np.full((1, 5), 0.2), atol=1e-7)
        np.testing.assert_allclose(
            t.value(h_star), t.value(h).mean(axis=0, keepdims=True), atol=1e-6
        )

    def test_zero_coverage_changes_nothing_bit_exact(self):
        model = tiny_summarizer()
        t = Tape()
        h, s, cov = _attention_inputs(t, model, n=4, seed=3)
        e_plain, _, _ = attend(t, model, h, _features(t, model, h), s, None, use_coverage=False)
        e_cov, _, _ = attend(t, model, h, _features(t, model, h), s, cov, use_coverage=True)
        assert t.value(e_plain).tobytes() == t.value(e_cov).tobytes()

    def test_attention_sums_to_one(self):
        model = tiny_summarizer()
        for seed in range(10):
            t = Tape()
            h, s, cov = _attention_inputs(t, model, n=6, seed=seed)
            _, a, _ = attend(t, model, h, _features(t, model, h), s, cov, use_coverage=True)
            assert abs(t.value(a).sum() - 1.0) <= 1e-5

    def test_coverage_requires_vector(self):
        model = tiny_summarizer()
        t = Tape()
        h, s, _ = _attention_inputs(t, model)
        with pytest.raises(ValueError, match="coverage"):
            attend(t, model, h, _features(t, model, h), s, None, use_coverage=True)


class TestVocabDistribution:
    def test_zero_output_layer_gives_uniform(self):
        model = tiny_summarizer()
        zero_params([model.proj_v_out, model.proj_b_mid])
        t = Tape()
        _, s, _ = _attention_inputs(t, model)
        h_star = t.leaf(np.ones((1, 2 * model.hidden_dim)))
        p = t.value(vocab_distribution(t, model, s, h_star))
        np.testing.assert_allclose(p, np.full((1, model.vocab_size), 1 / model.vocab_size),
                                   atol=1e-7)

    def test_sums_to_one_across_random_models(self):
        for seed in range(30):
            model = tiny_summarizer(seed=seed)
            t = Tape()
            _, s, _ = _attention_inputs(t, model, seed=seed)
            h_star = t.leaf(np.random.default_rng(seed).uniform(-1, 1, (1, 2 * model.hidden_dim)))
            p = t.value(vocab_distribution(t, model, s, h_star))
            assert abs(p.sum() - 1.0) <= 1e-5
            assert p.shape == (1, model.vocab_size)


class TestGenerationProb:
    def test_zero_pointer_params_give_half(self):
        model = tiny_summarizer()
        zero_params([model.ptr_w_context, model.ptr_w_state, model.ptr_w_input, model.ptr_bias])
        t = Tape()
        _, s, _ = _attention_inputs(t, model)
        h_star = t.leaf(np.ones((1, 2 * model.hidden_dim)))
        x = t.leaf(np.ones((1, model.emb_dim)))
        assert t.value(generation_prob(t, model, h_star, s, x))[0, 0] == pytest.approx(0.5)

    def test_monotone_in_bias(self):
        model = tiny_summarizer()
        values = []
        for bias in (-3.0, 0.0, 3.0, 30.0):
            model.ptr_bias.value[...] = bias
            t = Tape()
            _, s, _ = _attention_inputs(t, model, seed=1)
            h_star = t.leaf(np.zeros((1, 2 * model.hidden_dim)))
            x = t.leaf(np.zeros((1, model.emb_dim)))
            values.append(float(t.value(generation_prob(t, model, h_star, s, x))[0, 0]))
        assert values == sorted(values)
        assert values[-1] > 0.999

    def test_always_strictly_inside_unit_interval(self):
        model = tiny_summarizer(seed=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = Tape()
            s = t.leaf(rng.uniform(-5, 5, (1, 2 * model.hidden_dim)))
            h_star = t.leaf(rng.uniform(-5, 5, (1, 2 * model.hidden_dim)))
            x = t.leaf(rng.uniform(-5, 5, (1, model.emb_dim)))
            v = float(t.value(generation_prob(t, model, h_star, s, x))[0, 0])
            assert 0.0 < v < 1.0


class TestFinalDistribution:
    def _mix(self, p_gen, p_vocab, attn, src_ext_ids, ext_size):
        t = Tape()
        pv = t.leaf([p_vocab])
        a = t.leaf([attn])
        pg = t.leaf([[p_gen]])
        out = final_distribution(t, pg, pv, a, src_ext_ids, ext_size - len(p_vocab))
        return t.value(out)[0]

    def test_pure_generation_pads_vocab_distribution(self):
        p = self._mix(1.0, [0.3, 0.7], [0.5, 0.5], [0, 2], 3)
        np.testing.assert_allclose(p, [0.3, 0.7, 0.0], atol=1e-7)

    def test_repeated_source_token_accumulates(self):
        # vocab {a,b}; source [a,a]; P(a)=0.5*0.5 + 0.5*(0.6+0.4)
        p = self._mix(0.5, [0.5, 0.5], [0.6, 0.4], [0, 0], 2)
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-6)

    def test_oov_source_token_gets_copy_mass_only(self):
        # vocab {a,b}; source [a, x] with x OOV at extended id 2
        p = self._mix(0.4, [0.7, 0.3], [0.2, 0.8], [0, 2], 3)
        np.testing.assert_allclose(p, [0.40, 0.12, 0.48], atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            raw = rng.uniform(0, 1, 4)
            pv = raw / raw.sum()
            raw_a = rng.uniform(0, 1, 3)
            a = raw_a / raw_a.sum()
            p = self._mix(float(rng.uniform()), list(pv), list(a), [0, 5, 2], 6)
            assert abs(p.sum() - 1.0) <= 1e-5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="source positions"):
            self._mix(0.5, [1.0], [0.5, 0.5, 0.0][:2], [0], 1)


class TestCoverage:
    def test_first_update_equals_first_attention(self):
        t = Tape()
        c0 = t.leaf([[0.0, 0.0]])
        a0 = t.leaf([[0.3, 0.7]])
        np.testing.assert_allclose(t.value(coverage_update(t, c0, a0)), [[0.3, 0.7]], atol=1e-7)

    def test_accumulates(self):
        t = Tape()
        c = t.leaf([[0.0, 0.0]])
        c = coverage_update(t, c, t.leaf([[0.3, 0.7]]))
        c = coverage_update(t, c, t.leaf([[0.5, 0.5]]))
        np.testing.assert_allclose(t.value(c), [[0.8, 1.2]], atol=1e-7)

    def test_mass_equals_step_count(self):
        _, vocab, prepared = tiny_corpus(n=2)
        model = tiny_summarizer(vocab_size=vocab.size, seed=2)
        t = Tape()
        _, _, _, traces = sequence_loss(t, model, prepared[0], use_coverage=True,
                                        collect_traces=True)
        for step, tr in enumerate(traces):
            assert abs(tr.coverage_before.sum() - step) <= 1e-4
            assert -1e-6 <= tr.penalty <= 1.0 + 1e-6

    def test_penalty_is_one_when_attention_repeats(self):
        t = Tape()
        a = t.leaf([[0.25, 0.75]])
        assert t.value(coverage_penalty(t, a, a))[0, 0] == pytest.approx(1.0)

    def test_length_mismatch(self):
        t = Tape()
        with pytest.raises(ValueError, match="coverage_update"):
            coverage_update(t, t.leaf([[0.0, 0.0]]), t.leaf([[1.0]]))


class TestSequenceLossAndTraining:
    def test_duplicated_example_same_batch_loss(self):
        _, vocab, prepared = tiny_corpus(n=1)
        cfg = RunConfig(batch_size=4, lr=0.15)
        m1 = tiny_summarizer(vocab_size=vocab.size, seed=11)
        m2 = tiny_summarizer(vocab_size=vocab.size, seed=11)
        l1 = train_batch(m1, [prepared[0]], cfg)
        l2 = train_batch(m2, [prepared[0], prepared[0]], cfg)
        assert l1 == l2

    def test_coverage_loss_decomposition_bit_exact(self):
        _, vocab, prepared = tiny_corpus(n=1)
        model = tiny_summarizer(vocab_size=vocab.size, seed=6)
        model.attn_w_cov.value[...] = 0.0  # keep both attention paths identical
        lam = 1.7
        t0 = Tape()
        plain, _, _, _ = sequence_loss(t0, model, prepared[0], use_coverage=False)
        t1 = Tape()
        combined, nll, pen, _ = sequence_loss(t1, model, prepared[0], use_coverage=True,
                                              cov_lambda=lam)
        assert t1.value(nll)[0, 0] == t0.value(plain)[0, 0]
        replay = t1.value(nll)[0, 0] + t1.value(pen)[0, 0] * np.float32(lam)
        assert t1.value(combined)[0, 0] == replay

    def test_smoothed_loss_strictly_decreases_on_toy_corpus(self):
        pairs, vocab, prepared = tiny_corpus(n=5, seed=13)
        model = tiny_summarizer(vocab_size=vocab.size, emb=8, hidden=8, seed=1)
        cfg = RunConfig(batch_size=5, lr=0.3, seed=0)
        losses = [train_batch(model, prepared, cfg) for _ in range(50)]
        thirds = [np.mean(losses[i : i + 16]) for i in (0, 17, 34)]
        assert thirds[0] > thirds[1] > thirds[2]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_batch(tiny_summarizer(), [], RunConfig())

    @pytest.mark.parametrize("where", ["loss", "gradient"])
    def test_non_finite_step_raises_before_any_update(self, where):
        _, vocab, prepared = tiny_corpus(n=2)
        model = tiny_summarizer(vocab_size=vocab.size, seed=2)
        if where == "loss":
            model.proj_v_out.value[0, 0] = np.nan
            match = "^non-finite loss nan$"
        else:
            model.proj_v_out.grad[0, 0] = np.inf  # backward adds into it
            match = "^non-finite gradient in parameter 'proj.V_out'$"
        before = {p.name: p.value.tobytes() for p in model.params()}
        with pytest.raises(NonFiniteError, match=match):
            train_batch(model, prepared, RunConfig())
        assert {p.name: p.value.tobytes() for p in model.params()} == before
        assert all(p._grad is None and p._acc is None for p in model.params())

    def test_evaluation_allocates_no_optimizer_state(self):
        pairs, vocab, prepared = tiny_corpus(n=2)
        model = tiny_summarizer(vocab_size=vocab.size, seed=2)
        corpus_loss(model, prepared, use_coverage=True)
        token_prediction_accuracy(model, prepared)
        for search in (dict(mode="greedy"), dict(mode="beam", beam_size=3)):
            decode(model, pairs[0].article, vocab, max_decode_len=6, **search)
        assert all(p._grad is None and p._acc is None for p in model.params())

    def test_corpus_loss_runs_without_mutating(self):
        _, vocab, prepared = tiny_corpus(n=2)
        model = tiny_summarizer(vocab_size=vocab.size, seed=2)
        before = model.embedding.weights.value.copy()
        corpus_loss(model, prepared)
        np.testing.assert_array_equal(model.embedding.weights.value, before)


class TestPreparePair:
    def test_target_has_boundaries_and_stop(self):
        pairs, vocab, prepared = tiny_corpus(n=1)
        ex = prepared[0]
        sb_count = sum(1 for i in ex.target_ext_ids if i == Vocabulary.SB)
        assert sb_count == 2
        assert ex.target_ext_ids[-1] == Vocabulary.STOP
        assert ex.dec_in_ids[0] == Vocabulary.START
        assert len(ex.dec_in_ids) == len(ex.target_ext_ids)

    def test_teacher_inputs_stay_in_base_vocab(self):
        pairs, vocab, prepared = tiny_corpus(n=4, oov_rate=1.0)
        for ex in prepared:
            assert all(i < vocab.size for i in ex.dec_in_ids)
            assert any(i >= vocab.size for i in ex.target_ext_ids)  # OOV entities


class TestDecode:
    def test_beam_one_equals_greedy(self):
        pairs, vocab, _ = tiny_corpus(n=3, seed=21)
        model = tiny_summarizer(vocab_size=vocab.size, seed=9)
        for p in pairs:
            g = decode(model, p.article, vocab, mode="greedy", max_decode_len=15)
            b = decode(model, p.article, vocab, mode="beam", beam_size=1, max_decode_len=15)
            assert g.token_ids == b.token_ids
            assert g.sentences == b.sentences

    def test_forced_copy_only_emits_source_tokens(self):
        pairs, vocab, _ = tiny_corpus(n=2, seed=22)
        model = tiny_summarizer(vocab_size=vocab.size, seed=10)
        for p in pairs:
            ext = ExtendedVocab(vocab, p.article)
            src = {ext.id(tok) for tok in p.article}
            out = decode(model, p.article, vocab, mode="greedy", max_decode_len=12,
                         force_p_gen=0.0)
            assert out.token_ids and set(out.token_ids) <= src

    def test_deterministic(self):
        pairs, vocab, _ = tiny_corpus(n=1, seed=23)
        model = tiny_summarizer(vocab_size=vocab.size, seed=3)
        a = decode(model, pairs[0].article, vocab, mode="beam", beam_size=3, max_decode_len=10)
        b = decode(model, pairs[0].article, vocab, mode="beam", beam_size=3, max_decode_len=10)
        assert a.token_ids == b.token_ids

    def test_always_three_sentences_with_degenerate_flag(self):
        pairs, vocab, _ = tiny_corpus(n=3, seed=24)
        model = tiny_summarizer(vocab_size=vocab.size, seed=5)
        for p in pairs:
            out = decode(model, p.article, vocab, max_decode_len=8)
            assert len(out.sentences) == 3  # padded if short, flagged below
            if any(not s for s in out.sentences):
                assert out.degenerate

    def test_empty_article_rejected(self):
        _, vocab, _ = tiny_corpus(n=1)
        with pytest.raises(ValueError, match="empty"):
            decode(tiny_summarizer(vocab_size=vocab.size), [], vocab)

    def test_unknown_mode_and_bad_beam(self):
        pairs, vocab, _ = tiny_corpus(n=1)
        model = tiny_summarizer(vocab_size=vocab.size)
        with pytest.raises(ValueError, match="mode"):
            decode(model, pairs[0].article, vocab, mode="sampling")
        with pytest.raises(ValueError, match="beam"):
            decode(model, pairs[0].article, vocab, mode="beam", beam_size=0)

    def test_vocab_size_mismatch_rejected(self):
        pairs, vocab, _ = tiny_corpus(n=1)
        with pytest.raises(ValueError, match="vocab"):
            decode(tiny_summarizer(vocab_size=vocab.size + 3), pairs[0].article, vocab)

    def test_coverage_traces_satisfy_identity(self):
        pairs, vocab, _ = tiny_corpus(n=1, seed=25)
        model = tiny_summarizer(vocab_size=vocab.size, seed=7)
        for search in (dict(mode="greedy"), dict(mode="beam", beam_size=4)):
            out = decode(model, pairs[0].article, vocab, max_decode_len=10,
                         use_coverage=True, collect_traces=True, **search)
            assert len(out.traces) == len(out.token_ids) > 0, search
            for step, tr in enumerate(out.traces):
                assert abs(tr.coverage_before.sum() - step) <= 1e-4
                assert -1e-6 <= tr.penalty <= 1.0 + 1e-6

    @pytest.mark.parametrize("mode", ["greedy", "beam"])
    def test_non_finite_weight_is_a_named_error(self, mode):
        pairs, vocab, _ = tiny_corpus(n=1, seed=26)
        model = tiny_summarizer(vocab_size=vocab.size, seed=8)
        model.proj_v_out.value[5, 0] = np.nan
        with pytest.raises(ValueError, match="decode: non-finite probabilities at step 0"):
            decode(model, pairs[0].article, vocab, mode=mode, max_decode_len=6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_k_equals_stable_argsort(data):
    values = data.draw(st.lists(
        st.sampled_from([-np.inf, -3.0, -0.5, 0.0, 1.25]) | st.floats(-4, 4),
        min_size=1, max_size=30))
    x = np.array(values, dtype=np.float64)
    k = data.draw(st.integers(1, x.size + 3))
    np.testing.assert_array_equal(summarizer._top_k(x, k),
                                  np.argsort(-x, kind="stable")[:k])


def _repeated_oov_example():
    """Source with two OOV tokens, each at several positions, both copied
    into the target."""
    vocab = Vocabulary(["t0", "t1", "t2", "t3", "t4", "t5", "t6"])
    pair = NewsPair(
        id="oov-repeats",
        article=["t0", "zz", "t1", "qq", "zz", "t2", "qq", "zz", "t3"],
        summary=[["zz", "t1"], ["qq"], ["t2", "zz"]],
    )
    return pair, vocab, prepare_pair(pair, vocab)


class TestDenseReferenceEquivalence:
    """Gather/scatter kernels and transposed matmuls against the dense
    one-hot path run on oracles.DenseTape."""

    @staticmethod
    def _loss_and_grads(tape, model, ex, use_coverage):
        zero_grads(model.params())
        loss, _, _, _ = sequence_loss(tape, model, ex, use_coverage=use_coverage,
                                      cov_lambda=1.0)
        tape.backward(loss)
        return float(tape.value(loss)[0, 0]), {p.name: p.grad.copy() for p in model.params()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_coverage", [False, True])
    def test_sequence_loss_and_grads_match(self, use_coverage, dtype):
        _, vocab, ex = _repeated_oov_example()
        assert len(ex.ext.doc_oovs) == 2
        model = tiny_summarizer(vocab_size=vocab.size, seed=4)
        loss, grads = self._loss_and_grads(Tape(dtype), model, ex, use_coverage)
        ref_loss, ref_grads = self._loss_and_grads(DenseTape(dtype), model, ex, use_coverage)
        assert abs(loss - ref_loss) <= 1e-6 * abs(ref_loss)
        # attn.W_s and attn.b_a shift every attention score alike, so their
        # grads nearly cancel (1e-10 against 1e-2 elsewhere).  In float32 the
        # rounding of the cancelled terms survives, so there each error is
        # taken relative to the largest grad of the model.
        model_scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            scale = np.abs(ref).max() if dtype is np.float64 else model_scale
            assert np.abs(grads[name] - ref).max() <= 1e-5 * scale, name

    def test_articles_sharing_a_tape_keep_their_own_features(self):
        _, vocab, ex = _repeated_oov_example()
        pairs, _, _ = tiny_corpus(n=1, seed=5)
        other = prepare_pair(pairs[0], vocab)
        model = tiny_summarizer(vocab_size=vocab.size, seed=4)
        losses = []
        for tape in (Tape(), DenseTape()):
            first, _, _, _ = sequence_loss(tape, model, ex, use_coverage=True)
            second, _, _, _ = sequence_loss(tape, model, other, use_coverage=True)
            losses.append(float(tape.value(tape.add(first, second))[0, 0]))
        assert abs(losses[0] - losses[1]) <= 1e-6 * abs(losses[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decoded_tokens_match(self, seed, monkeypatch):
        pair, vocab, _ = _repeated_oov_example()
        model = tiny_summarizer(vocab_size=vocab.size, seed=seed)
        runs = [("greedy", 1, False), ("beam", 4, False), ("beam", 4, True)]

        def decode_all():
            return [decode(model, pair.article, vocab, mode=mode, beam_size=beam,
                           max_decode_len=15, use_coverage=cov).token_ids
                    for mode, beam, cov in runs]

        sparse = decode_all()
        monkeypatch.setattr(summarizer, "Tape", DenseTape)
        assert decode_all() == sparse


def test_sequence_loss_tape_holds_no_vocab_wide_constant():
    vocab = Vocabulary([f"w{i}" for i in range(995)])
    assert vocab.size == 1000
    pair = NewsPair(id="wide", article=["w1", "zz", "w2", "zz", "qq"],
                    summary=[["zz"], ["w2"], ["qq"]])
    ex = prepare_pair(pair, vocab)
    model = tiny_summarizer(vocab_size=vocab.size, seed=1)
    t = Tape()
    sequence_loss(t, model, ex, use_coverage=True)
    param_nodes = {t.param(p) for p in model.params()}
    wide = [nid for nid, node in enumerate(t.nodes)
            if node.kernel is Kernel.LEAF and nid not in param_nodes
            and node.value.shape[1] >= vocab.size]
    assert wide == []


@pytest.mark.parametrize("use_coverage", [False, True])
def test_attention_keeps_one_score_array_per_step(use_coverage):
    # Per step the tape holds the tanh of the scores and, with coverage, the
    # coverage term; the encoder features are shared.  Storing the partial
    # sums again would add (n x attn) values.
    n, attn = 50, 16
    vocab = Vocabulary([f"w{i}" for i in range(20)])
    article = [f"w{i % 17}" for i in range(n)]
    pair = NewsPair(id="mem", article=article,
                    summary=[["w1", "w2"], ["w3"], ["w4", "w5"]])
    ex = prepare_pair(pair, vocab)
    model = summarizer.SummarizerParams(vocab.size, emb_dim=4, hidden_dim=12, attn_dim=attn,
                                        seed=1)
    t = Tape()
    sequence_loss(t, model, ex, use_coverage=use_coverage)
    steps = len(ex.target_ext_ids)
    held = [node for node in t.nodes
            if node.kernel is not Kernel.LEAF and node.value.shape == (n, attn)]
    assert len(held) == (2 * steps + 1 if use_coverage else steps + 1)


def _wide_example():
    """Vocab 2,000 with 27 target rows: wide enough that one stacked GEMM
    and per-row products round differently."""
    vocab = Vocabulary([f"w{i}" for i in range(1995)])
    pair = NewsPair(id="wide", article=[f"w{i}" for i in range(0, 60, 2)] + ["zz"],
                    summary=[[f"w{i}" for i in range(5, 25)], ["zz", "w3"], ["w7"]])
    return SummarizerParams(vocab.size, emb_dim=16, hidden_dim=32, seed=2), prepare_pair(pair, vocab)


def _repeated_oov_model_and_example():
    _, vocab, ex = _repeated_oov_example()
    return tiny_summarizer(vocab_size=vocab.size, seed=4), ex


class TestPerRowReferenceEquivalence:
    """Teacher forcing runs the output part once on all T target rows;
    oracles.per_row_teacher_forced runs it once per row, as one decoder step
    did before.  Only the rounding of the stacked products may differ."""

    @staticmethod
    def _loss_and_grads(model, ex, use_coverage, dtype):
        zero_grads(model.params())
        tape = Tape(dtype)
        loss, _, _, _ = sequence_loss(tape, model, ex, use_coverage=use_coverage)
        tape.backward(loss)
        return float(tape.value(loss)[0, 0]), {p.name: p.grad.copy() for p in model.params()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_coverage", [False, True])
    @pytest.mark.parametrize("make", [_repeated_oov_model_and_example, _wide_example])
    def test_sequence_loss_and_grads_match(self, make, use_coverage, dtype, monkeypatch):
        model, ex = make()
        loss, grads = self._loss_and_grads(model, ex, use_coverage, dtype)
        monkeypatch.setattr(summarizer, "_teacher_forced", per_row_teacher_forced)
        ref_loss, ref_grads = self._loss_and_grads(model, ex, use_coverage, dtype)
        assert abs(loss - ref_loss) <= 1e-5 * abs(ref_loss)
        # attn.W_s and attn.b_a shift every attention score alike, so their
        # grads nearly cancel; in float32 each error is taken relative to the
        # largest grad of the model, as in TestDenseReferenceEquivalence.
        model_scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            scale = np.abs(ref).max() if dtype is np.float64 else model_scale
            assert np.abs(grads[name] - ref).max() <= 1e-5 * scale, name

    def test_accuracy_and_traces_match(self, monkeypatch):
        model, ex = _wide_example()

        def run():
            _, _, _, traces = sequence_loss(Tape(), model, ex, use_coverage=True,
                                            collect_traces=True)
            return (token_prediction_accuracy(model, [ex], use_coverage=True),
                    [(tr.attention.tobytes(), tr.coverage_before.tobytes(), tr.p_gen, tr.penalty)
                     for tr in traces])

        stacked = run()
        monkeypatch.setattr(summarizer, "_teacher_forced", per_row_teacher_forced)
        assert run() == stacked


class TestDirectionalGradientAtPaperShape:
    """The gradient against the loss itself at paper shape (vocab 20,000,
    emb 128, hidden 256, 400 source tokens, 60 target rows), where the
    finite-difference suite cannot go and the stacked output rows are wide.

    Along a random unit direction d, θ± = θ ± εd are rounded to the float32
    parameters, and on a float64 tape L(θ+) − L(θ−) must match
    ⟨∇L(θ), θ+ − θ−⟩, taken with the rounded steps so that float32 storage
    does not bias the check.  The miss is measured against ‖∇L‖·‖θ+ − θ−‖,
    the most the inner product can be, since over 8 million parameters a
    random direction makes the inner product itself small and sometimes
    near zero.  Correct gradients miss by at most 1.5e-11 of that; one row
    dropped from the stacked V_out adjoint misses by 1.7e-7 or more.
    """

    EPS = 1e-2
    DIRECTIONS = 2

    @pytest.fixture(scope="class")
    def paper(self):
        rng = np.random.default_rng(0)
        vocab = Vocabulary([f"w{i}" for i in range(19995)])
        article = [f"w{i}" for i in rng.integers(0, 19995, 400)]
        for k, pos in enumerate(rng.choice(400, 6, replace=False)):
            article[pos] = f"oov{k % 3}"
        summary = [list(rng.choice(article, 19)) for _ in range(3)]
        ex = prepare_pair(NewsPair(id="paper", article=article, summary=summary), vocab)
        assert (vocab.size, len(ex.enc_ids), len(ex.target_ext_ids)) == (20000, 400, 60)
        return SummarizerParams(vocab.size, emb_dim=128, hidden_dim=256, seed=1), ex

    @staticmethod
    def _loss(model, ex, use_coverage, grads=False):
        tape = Tape(np.float64)
        loss, _, _, _ = sequence_loss(tape, model, ex, use_coverage=use_coverage)
        value = float(tape.value(loss)[0, 0])
        if not grads:
            return value
        leaves = {p.name: tape.param(p) for p in model.params()}
        tape.backward(loss)
        zero_grads(model.params())  # backward also added float32 copies there
        return value, {name: tape.grad(nid) for name, nid in leaves.items()}

    @pytest.mark.parametrize("use_coverage", [False, True])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_loss_change_matches_the_gradient(self, paper, per_row, use_coverage, monkeypatch):
        model, ex = paper
        if per_row:
            monkeypatch.setattr(summarizer, "_teacher_forced", per_row_teacher_forced)
        _, grads = self._loss(model, ex, use_coverage, grads=True)
        theta = {p.name: p.value.copy() for p in model.params()}
        rng = np.random.default_rng(10 + 2 * per_row + use_coverage)
        try:
            for _ in range(self.DIRECTIONS):
                d = {name: rng.standard_normal(v.shape) for name, v in theta.items()}
                scale = self.EPS / np.sqrt(sum(float((v * v).sum()) for v in d.values()))
                losses, rounded = [], {}
                for sign in (1.0, -1.0):
                    for p in model.params():
                        p.value[...] = theta[p.name] + sign * scale * d[p.name]
                        rounded.setdefault(p.name, []).append(p.value.astype(np.float64))
                    losses.append(self._loss(model, ex, use_coverage))
                steps = {name: plus - minus for name, (plus, minus) in rounded.items()}
                predicted = sum(float((g * steps[name]).sum())
                                for name, g in grads.items() if g is not None)
                bound = (np.sqrt(sum(float((g * g).sum()) for g in grads.values() if g is not None))
                         * np.sqrt(sum(float((v * v).sum()) for v in steps.values())))
                miss = abs((losses[0] - losses[1]) - predicted) / bound
                assert miss <= 1e-9, (losses[0] - losses[1], predicted, miss)
        finally:
            for p in model.params():
                p.value[...] = theta[p.name]


def test_backward_peak_stays_under_one_v_out_and_four_output_blocks():
    # Backward makes one stacked V_out product, not T outer products added
    # into a parameter-sized adjoint (two V_out-sized arrays alive at once),
    # and the sweep hands back the (T x V') values it has used.  Vocab-heavy: V_out
    # (5,000 x 64) outweighs four (T x V') blocks at T = 15.
    vocab = Vocabulary([f"w{i}" for i in range(4995)])
    rng = np.random.default_rng(0)
    article = [f"w{i}" for i in rng.integers(0, 4995, 40)] + ["zz", "qq"]
    summary = [[f"w{i}" for i in rng.integers(0, 4995, 4)] for _ in range(3)]
    ex = prepare_pair(NewsPair(id="heavy", article=article, summary=summary), vocab)
    model = SummarizerParams(vocab.size, emb_dim=16, hidden_dim=64, seed=1)
    tracemalloc.start()  # before the tape is built, so the values it frees count
    try:
        t = Tape()
        loss, _, _, _ = sequence_loss(t, model, ex, use_coverage=True)
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    rows, ext = len(ex.target_ext_ids), ex.ext.size
    assert rows == 15
    assert peak < model.proj_v_out.value.nbytes + 4 * rows * ext * 4


@pytest.mark.parametrize("use_coverage", [False, True])
def test_backward_leaves_values_on_leaves_and_the_loss_only(use_coverage):
    model, ex = _repeated_oov_model_and_example()
    t = Tape()
    loss, _, _, _ = sequence_loss(t, model, ex, use_coverage=use_coverage)
    assert loss == len(t) - 1
    t.backward(loss)
    held = [nid for nid, node in enumerate(t.nodes) if node.value is not None]
    assert held == [nid for nid, node in enumerate(t.nodes)
                    if node.kernel is Kernel.LEAF or nid == loss]
    with pytest.raises(ValueError, match="already run backward"):
        t.backward(loss)


# -- one decoder step: pinned values, replay and call-through -----------------


def _golden_pairs():
    vocab = Vocabulary([f"t{i}" for i in range(8)])
    pairs = [
        NewsPair(id="a", article=["t0", "zz", "t1", "qq", "zz", "t2", "qq", "zz", "t3"],
                 summary=[["zz", "t1"], ["qq"], ["t2", "zz"]]),
        NewsPair(id="b", article=["t4", "t5", "yy", "t6", "t7", "t5", "yy", "t0"],
                 summary=[["t4", "yy"], ["t6", "t7"], ["yy"]]),
    ]
    return pairs, vocab


_GOLDEN_DECODES = {
    "greedy": dict(mode="greedy"),
    "greedy_cov": dict(mode="greedy", use_coverage=True),
    "beam4": dict(mode="beam", beam_size=4),
    "beam4_cov": dict(mode="beam", beam_size=4, use_coverage=True),
    "copy_only": dict(mode="greedy", force_p_gen=0.0),
}
_HELD_OUT_ARTICLE = ["t3", "t2", "ww", "t1", "ww", "t0", "t5"]


def _train_golden():
    """A tiny model trained for 80 steps on two pairs, the last three with
    coverage; returns (model, vocab, pairs, prepared, train losses)."""
    pairs, vocab = _golden_pairs()
    prepared = [prepare_pair(p, vocab) for p in pairs]
    model = tiny_summarizer(vocab_size=vocab.size, emb=8, hidden=8, seed=4)
    cfg = RunConfig(batch_size=2, lr=0.5)
    losses = [train_batch(model, prepared, cfg, use_coverage=step >= 77) for step in range(80)]
    return model, vocab, pairs, prepared, losses


@pytest.fixture(scope="module")
def trained():
    """The golden model, trained on the production (stacked-row) path."""
    return _train_golden()


def _golden_values(model, vocab, pairs, prepared, losses):
    articles = [p.article for p in pairs] + [_HELD_OUT_ARTICLE]
    out = {"train_losses": [repr(x) for x in losses[::10] + losses[-3:]]}
    for name, kw in _GOLDEN_DECODES.items():
        out[name] = [decode(model, a, vocab, max_decode_len=12, **kw).token_ids
                     for a in articles]
    digest = hashlib.sha256()
    for a in articles:
        res = decode(model, a, vocab, max_decode_len=12, use_coverage=True, collect_traces=True)
        for tr in res.traces:
            digest.update(tr.attention.tobytes() + tr.coverage_before.tobytes())
            digest.update(repr((tr.p_gen, tr.penalty)).encode())
    out["greedy_cov_traces_sha256"] = digest.hexdigest()
    out["corpus_loss"] = repr(corpus_loss(model, prepared))
    out["corpus_loss_cov"] = repr(corpus_loss(model, prepared, use_coverage=True,
                                              cov_lambda=1.0))
    out["accuracy"] = token_prediction_accuracy(model, prepared)
    out["accuracy_gen_only"] = token_prediction_accuracy(model, prepared, force_p_gen=1.0)
    out["accuracy_cov"] = token_prediction_accuracy(model, prepared, use_coverage=True)
    return out


# Computed with the three separate per-step forward passes (teacher-forced
# loss, teacher-forced accuracy, decoding) that decoder_step replaced.
GOLDEN = {
    "train_losses": [
        "2.5688071250915527", "1.8927972316741943", "1.5113458633422852",
        "1.3965076208114624", "1.3727527856826782", "1.3523516654968262",
        "1.3195563554763794", "1.2224838733673096", "1.9804961681365967",
        "1.9649020433425903", "1.9767993688583374",
    ],
    "greedy": [[13, 6, 6, 4, 13, 4, 13, 4], [13, 6, 4, 13, 4, 13, 4], [13, 6, 4, 13, 4, 13, 4]],
    "greedy_cov": [[13, 6, 6, 4, 13, 4, 13, 4], [13, 6, 4, 13, 4, 13, 4],
                   [13, 6, 4, 13, 4, 13, 4]],
    "beam4": [[13, 6, 6, 4, 13, 4, 13, 4]] * 3,
    "beam4_cov": [[13, 6, 6, 4, 13, 4, 13, 4]] * 3,
    "copy_only": [[13] * 12] * 3,
    "greedy_cov_traces_sha256": "120900631dc21779aad24588b39065202e25afe41397237f5a68c95ca53525a7",
    "corpus_loss": "1.2579447031021118",
    "corpus_loss_cov": "2.1329323053359985",
    "accuracy": {"accuracy": 0.4375, "oov_accuracy": 0.8, "tokens": 16, "oov_tokens": 5},
    "accuracy_gen_only": {"accuracy": 0.1875, "oov_accuracy": 0.0, "tokens": 16, "oov_tokens": 5},
    "accuracy_cov": {"accuracy": 0.4375, "oov_accuracy": 0.8, "tokens": 16, "oov_tokens": 5},
}


def test_golden_values_are_unchanged(monkeypatch):
    # GOLDEN pins float32 losses as exact reprs, computed with the output
    # part run once per step.  Teacher forcing stacks the T rows into one
    # GEMM, which rounds differently (the losses move in the 6th significant
    # digit), so the pins are checked on the per-row reference; decoding
    # runs one row per hypothesis either way.
    monkeypatch.setattr(summarizer, "_teacher_forced", per_row_teacher_forced)
    assert _golden_values(*_train_golden()) == GOLDEN


def test_golden_model_trained_on_stacked_rows_decodes_the_pinned_tokens(trained):
    model, vocab, pairs, _, _ = trained
    articles = [p.article for p in pairs] + [_HELD_OUT_ARTICLE]
    for name, kw in _GOLDEN_DECODES.items():
        decoded = [decode(model, a, vocab, max_decode_len=12, **kw).token_ids for a in articles]
        assert decoded == GOLDEN[name], name


@pytest.mark.parametrize("use_coverage", [False, True])
@pytest.mark.parametrize("force_p_gen", [None, 0.0])
def test_teacher_forced_replay_of_a_decode_matches_its_traces(trained, use_coverage, force_p_gen):
    """Each case replays a greedy and a beam-4 decode; beam traces are the
    winning hypothesis's own."""
    model, vocab, pairs, _, _ = trained
    searches = (dict(mode="greedy"), dict(mode="beam", beam_size=4))
    for article, search in itertools.product([p.article for p in pairs] + [_HELD_OUT_ARTICLE],
                                             searches):
        out = decode(model, article, vocab, max_decode_len=12, use_coverage=use_coverage,
                     force_p_gen=force_p_gen, collect_traces=True, **search)
        ex = prepare_pair(NewsPair(id="replay", article=article, summary=[["t0"]]), vocab)
        ex.dec_in_ids = [Vocabulary.START] + [
            i if i < vocab.size else Vocabulary.UNK for i in out.token_ids[:-1]
        ]
        ex.target_ext_ids = list(out.token_ids)
        _, _, _, traces = sequence_loss(Tape(), model, ex, use_coverage=use_coverage,
                                        force_p_gen=force_p_gen, collect_traces=True)
        assert len(traces) == len(out.traces) == len(out.token_ids), search
        for replayed, decoded in zip(traces, out.traces):
            assert replayed.attention.tobytes() == decoded.attention.tobytes()
            assert replayed.coverage_before.tobytes() == decoded.coverage_before.tobytes()
            assert replayed.p_gen == decoded.p_gen
            if use_coverage:
                assert abs(replayed.penalty - decoded.penalty) <= 1e-6
            else:
                assert replayed.penalty is None and decoded.penalty is None


class TestCallThrough:
    """A profiler can patch the step pieces, train_batch and Tape as module
    attributes; every caller must look them up there at call time."""

    STEP_PIECES = ("lstm_step", "attend", "vocab_distribution", "generation_prob",
                   "final_distribution")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.STEP_PIECES, 0)
        for name in self.STEP_PIECES:
            original = getattr(summarizer, name)

            def counting(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(summarizer, name, counting)
        return counts

    @pytest.mark.parametrize("entry", ["sequence_loss", "accuracy", "greedy", "beam"])
    def test_every_step_piece_fires(self, calls, entry):
        pairs, vocab = _golden_pairs()
        ex = prepare_pair(pairs[0], vocab)
        model = tiny_summarizer(vocab_size=vocab.size, seed=1)
        if entry == "sequence_loss":
            sequence_loss(Tape(), model, ex, use_coverage=True)
        elif entry == "accuracy":
            token_prediction_accuracy(model, [ex])
        else:
            decode(model, pairs[0].article, vocab, mode=entry, max_decode_len=3)
        assert all(calls.values()), calls

    def test_decode_builds_its_tape_from_the_module_attribute(self, monkeypatch):
        pairs, vocab = _golden_pairs()
        built = []

        class CountingTape(Tape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(summarizer, "Tape", CountingTape)
        decode(tiny_summarizer(vocab_size=vocab.size), pairs[0].article, vocab,
               max_decode_len=3)
        assert len(built) == 1

    def test_pipeline_trains_through_its_train_batch_attribute(self, monkeypatch):
        pairs, vocab = _golden_pairs()
        prepared = [prepare_pair(p, vocab) for p in pairs]
        seen = []

        def recording(model, batch, *args, **kwargs):
            seen.append(len(batch))
            return summarizer.train_batch(model, batch, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train_batch", recording)
        cfg = RunConfig(hidden_dim=8, emb_dim=4, batch_size=2)
        losses = pipeline._train_steps(tiny_summarizer(vocab_size=vocab.size), prepared, cfg, 3)
        assert len(losses) == 3 and seen == [2, 2, 2]

    def test_both_trainers_step_through_the_tape_module_attributes(self, monkeypatch):
        fired = []
        for name in ("global_grad_norm", "clip_global_norm", "adagrad_step"):
            def counting(*args, _name=name, _fn=getattr(tape_mod, name), **kwargs):
                fired.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(tape_mod, name, counting)
        pairs, vocab = _golden_pairs()
        train_batch(tiny_summarizer(vocab_size=vocab.size), [prepare_pair(pairs[0], vocab)],
                    RunConfig())
        assert fired == ["clip_global_norm", "global_grad_norm", "adagrad_step"]
        fired.clear()
        examples = [LabeledExample(ids=[5, 7], gold=0), LabeledExample(ids=[6, 7], gold=1)]
        train_classifier(ClassifierParams(10, emb_dim=4, hidden_dim=3), examples, None,
                         ClassifierTrainConfig(batch_size=1, epochs=1))
        assert fired == ["global_grad_norm", "adagrad_step"] * 2
