"""Attention, copy mixture, coverage, teacher-forced training, decoding."""

import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
    PreparedExample,
    SummarizerParams,
    attend,
    corpus_loss,
    decode,
    final_distribution,
    generation_prob,
    prepare_pair,
    sequence_loss,
    token_prediction_accuracy,
    train_batch,
    vocab_distribution,
)
from b3sum.tape import (CopyIds, DimensionError, FactoredGrad, Kernel, NonFiniteError, RowBlock,
                        Tape, zero_grads)

import oracles
from helpers import step_traces, tiny_corpus, tiny_summarizer, traced_peak, zero_params
from oracles import DenseTape, MixChainTape, OracleTape, per_row_teacher_forced, use_oracle_tape


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

    def test_source_ids_in_both_vocabularies(self):
        vocab = Vocabulary(["a", "b"])
        article = ["zz", "a", "qq", "zz", "b", "qq", "zz", "<unk>"]
        ext = ExtendedVocab(vocab, article)
        assert ext.enc_ids == vocab.encode(article)
        assert ext.src_ext_ids == [ext.id(t) for t in article]
        assert ext.src_ext_ids[:4] == [vocab.size, vocab.id("a"), vocab.size + 1, vocab.size]


class TestAttend:
    def test_single_position_attends_fully(self):
        model = tiny_summarizer()
        t = Tape()
        h, s, cov = _attention_inputs(t, model, n=1)
        a, h_star, _ = attend(t, model, h, _features(t, model, h), s, cov)
        np.testing.assert_allclose(t.value(a), [[1.0]])
        np.testing.assert_array_equal(t.value(h_star), t.value(h))

    def test_zero_params_give_uniform_attention_and_mean_context(self):
        model = tiny_summarizer()
        zero_params([model.attn_v, model.attn_w_enc, model.attn_w_state,
                     model.attn_bias, model.attn_w_cov])
        t = Tape()
        h, s, _ = _attention_inputs(t, model, n=5)
        a, h_star, attention = attend(t, model, h, _features(t, model, h), s, None)
        assert attention is None
        np.testing.assert_allclose(t.value(a), np.full((1, 5), 0.2), atol=1e-7)
        np.testing.assert_allclose(
            t.value(h_star), t.value(h).mean(axis=0, keepdims=True), atol=1e-6
        )

    def test_zero_coverage_changes_nothing_bit_exact(self):
        model = tiny_summarizer()
        t = Tape()
        h, s, cov = _attention_inputs(t, model, n=4, seed=3)
        plain = attend(t, model, h, _features(t, model, h), s, None)
        covered = attend(t, model, h, _features(t, model, h), s, cov)
        for x, y in zip(plain[:2], covered[:2]):
            assert t.value(x).tobytes() == t.value(y).tobytes()
        assert t.value(covered[2])[:, -1:].tolist() == [[0.0]]  # the penalty column

    def test_attention_sums_to_one(self):
        model = tiny_summarizer()
        for seed in range(10):
            t = Tape()
            h, s, cov = _attention_inputs(t, model, n=6, seed=seed)
            a, _, _ = attend(t, model, h, _features(t, model, h), s, cov)
            assert abs(t.value(a).sum() - 1.0) <= 1e-5

    def test_rows_are_byte_equal_to_one_row_and_per_step_calls(self):
        # R rows in one call give each row the values a call on that row
        # alone gives, and those of the per-step attention (an add chain
        # under one tanh, then a softmax node) that the attention kernel
        # replaced.
        model = tiny_summarizer()
        t = OracleTape()
        h, _, _ = _attention_inputs(t, model, n=5, seed=4)
        feats = _features(t, model, h)
        s = t.leaf(np.random.default_rng(5).uniform(-1, 1, (4, 2 * model.hidden_dim)))
        together = [t.value(n) for n in attend(t, model, h, feats, s, None)[:2]]
        for r in range(4):
            s_r = t.slice(s, (r, r + 1))
            for one_row in (attend(t, model, h, feats, s_r, None)[:2],
                            oracles.attend(t, model, h, feats, s_r, None, use_coverage=False)[1:]):
                for rows, one in zip(together, one_row):
                    assert rows[r : r + 1].tobytes() == t.value(one).tobytes()

    def test_coverage_requires_vector(self):
        model = tiny_summarizer()
        t = Tape()
        h, s, _ = _attention_inputs(t, model)
        with pytest.raises(DimensionError, match="coverage"):
            attend(t, model, h, _features(t, model, h), s, t.leaf(np.zeros((2, 4))))


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
        out = final_distribution(t, pg, pv, a, CopyIds(src_ext_ids, ext_size))
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
        with pytest.raises(ValueError, match=r"attention \(1, 2\) do not fit 1 ids"):
            self._mix(0.5, [1.0], [0.5, 0.5, 0.0][:2], [0], 1)


def _forced_p_gen_runs(force_p_gen):
    """Decoding and teacher-forced accuracy, each with the switch forced to
    ``force_p_gen``."""
    pairs, vocab, _ = tiny_corpus(n=1, seed=22)
    model = tiny_summarizer(vocab_size=vocab.size, seed=10)
    ex = prepare_pair(pairs[0], vocab)
    return [
        lambda: decode(model, pairs[0].article, vocab, max_decode_len=5, force_p_gen=force_p_gen),
        lambda: token_prediction_accuracy(model, [ex], force_p_gen=force_p_gen),
    ]


@pytest.mark.parametrize("force_p_gen", [2.0, -0.5, float("nan")])
def test_force_p_gen_outside_the_unit_interval_is_rejected(force_p_gen):
    for run in _forced_p_gen_runs(force_p_gen):
        with pytest.raises(ValueError, match=r"force_p_gen must be a finite value in \[0, 1\]"):
            run()


@pytest.mark.parametrize("force_p_gen", [0.0, 1.0])
def test_force_p_gen_at_either_end_of_the_unit_interval_runs(force_p_gen):
    for run in _forced_p_gen_runs(force_p_gen):
        run()


class TestCoverage:
    # One attention node runs the chain: row r reads the coverage c_r the
    # rows before it leave, with c_{r+1} = c_r + a_r, and column n holds
    # the penalty Σ min(a_r, c_r).

    @staticmethod
    def _attention(t, queries, coverage, w_c=None, n=5):
        """The (R x (n + 1)) value of one node on fixed features, v and bias."""
        rng = np.random.default_rng(0)
        d = queries.shape[1]
        feats, v, bias, w = (t.leaf(rng.uniform(-1, 1, shape))
                             for shape in ((n, d), (1, d), (1, d), (1, d)))
        if w_c is not None:
            w = t.leaf(w_c)
        return t.value(t.attention(feats, t.leaf(queries), v, bias, t.leaf(coverage), w))

    def test_first_update_equals_first_attention(self):
        queries = np.random.default_rng(1).uniform(-1, 1, (2, 3))
        t = Tape()
        both = self._attention(t, queries, np.zeros((1, 5)))
        assert both[0, 5] == 0.0  # nothing is covered before the first row
        second = self._attention(t, queries[1:], both[:1, :5])
        assert second.tobytes() == both[1:].tobytes()

    def test_accumulates(self):
        rng = np.random.default_rng(2)
        queries, c0 = rng.uniform(-1, 1, (3, 3)), rng.uniform(0, 1, (1, 5)).astype(np.float32)
        t = Tape()
        rows = self._attention(t, queries, c0)
        c2 = c0 + rows[:1, :5] + rows[1:2, :5]
        assert c2.sum() == pytest.approx(c0.sum() + 2.0, abs=1e-5)
        assert self._attention(t, queries[2:], c2).tobytes() == rows[2:].tobytes()

    def test_mass_equals_step_count(self):
        _, vocab, prepared = tiny_corpus(n=2)
        model = tiny_summarizer(vocab_size=vocab.size, seed=2)
        t = Tape()
        _, _, _, step = sequence_loss(t, model, prepared[0], use_coverage=True)
        for i, tr in enumerate(step_traces(t, step)):
            assert abs(tr.coverage_before.sum() - i) <= 1e-4
            assert -1e-6 <= tr.penalty <= 1.0 + 1e-6

    def test_penalty_is_one_when_attention_repeats(self):
        queries = np.repeat(np.random.default_rng(3).uniform(-1, 1, (1, 3)), 2, axis=0)
        t = Tape()
        out = self._attention(t, queries, np.zeros((1, 5)), w_c=np.zeros((1, 3)))
        assert out[0, 5] == 0.0
        assert out[1, 5] == pytest.approx(1.0)

    def test_length_mismatch(self):
        t = Tape()
        with pytest.raises(DimensionError, match=r"attention: .*coverage \(1, 4\)"):
            self._attention(t, np.zeros((1, 3)), np.zeros((1, 4)))


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


def _leaf_grads(tape, loss, params):
    """Run backward and return each parameter's leaf adjoint in the tape's
    dtype (a float64 tape's, not the float32 copy added into ``p.grad``),
    dense; zeros for a parameter the loss does not reach."""
    leaves = {p.name: tape.param(p) for p in params}
    tape.backward(loss)
    zero_grads(params)
    return {name: (tape.grad(nid) if tape.grad(nid) is not None
                   else np.zeros_like(tape.value(nid)))
            for name, nid in leaves.items()}


class TestDenseReferenceEquivalence:
    """Gather kernels, the copy mix and transposed matmuls against the dense
    one-hot path run on oracles.DenseTape."""

    @staticmethod
    def _loss_and_grads(tape, model, ex, use_coverage):
        loss, _, _, _ = sequence_loss(tape, model, ex, use_coverage=use_coverage,
                                      cov_lambda=1.0)
        return float(tape.value(loss)[0, 0]), _leaf_grads(tape, loss, model.params())

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
    # The tape holds the encoder features, shared by every step, and no
    # (n x attn) array per step: the attention kernel stores only its weights
    # (and penalties) and recomputes each row's tanh in backward, coverage
    # term included.
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
    assert steps == 8 and len(held) == 1


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
    """Teacher forcing runs the LSTM and (without coverage) attention as
    sequence kernels and the output part once on all T target rows;
    oracles.per_row_teacher_forced runs the LSTM and attention one step at a
    time and the output part once per row, as one decoder step did before.
    Only the rounding of the stacked products and of the kernels' backward
    may differ."""

    @staticmethod
    def _loss_and_grads(model, ex, use_coverage, dtype):
        tape = summarizer.Tape(dtype)  # an OracleTape on the reference
        loss, _, _, _ = sequence_loss(tape, model, ex, use_coverage=use_coverage)
        return float(tape.value(loss)[0, 0]), _leaf_grads(tape, loss, model.params())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_coverage", [False, True])
    @pytest.mark.parametrize("make", [_repeated_oov_model_and_example, _wide_example])
    def test_sequence_loss_and_grads_match(self, make, use_coverage, dtype, monkeypatch):
        model, ex = make()
        loss, grads = self._loss_and_grads(model, ex, use_coverage, dtype)
        use_oracle_tape(monkeypatch)
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
            tape = summarizer.Tape()
            _, _, _, step = sequence_loss(tape, model, ex, use_coverage=True)
            return (token_prediction_accuracy(model, [ex], use_coverage=True),
                    [(tr.attention.tobytes(), tr.coverage_before.tobytes(), tr.p_gen, tr.penalty)
                     for tr in step_traces(tape, step)])

        stacked = run()
        use_oracle_tape(monkeypatch)
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
        assert (vocab.size, len(ex.ext.enc_ids), len(ex.target_ext_ids)) == (20000, 400, 60)
        return SummarizerParams(vocab.size, emb_dim=128, hidden_dim=256, seed=1), ex

    @staticmethod
    def _loss(model, ex, use_coverage, grads=False):
        tape = summarizer.Tape(np.float64)  # an OracleTape on the per-row reference
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
            use_oracle_tape(monkeypatch)
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


def test_backward_peak_stays_under_one_v_out_less_one_output_block():
    # Backward keeps V_out's adjoint as its two factors, not T outer
    # products added into a parameter-sized adjoint (two V_out-sized arrays
    # alive at once), and the sweep hands back each (T x V') value as it
    # reaches it, the copy mix's and the logits' before their rules run.
    # Vocab-heavy: V_out (5,000 x 64) outweighs four (T x V') blocks at
    # T = 15.  Measured: V_out less 3.2 blocks (about one block); one
    # stacked V_out product peaked at V_out less 1.2, and the mix as a chain
    # of nodes at V_out less 1.26.
    vocab = Vocabulary([f"w{i}" for i in range(4995)])
    rng = np.random.default_rng(0)
    article = [f"w{i}" for i in rng.integers(0, 4995, 40)] + ["zz", "qq"]
    summary = [[f"w{i}" for i in rng.integers(0, 4995, 4)] for _ in range(3)]
    ex = prepare_pair(NewsPair(id="heavy", article=article, summary=summary), vocab)
    model = SummarizerParams(vocab.size, emb_dim=16, hidden_dim=64, seed=1)
    with traced_peak() as traced:  # before the tape is built, so the values it frees count
        t = Tape()
        loss, _, _, _ = sequence_loss(t, model, ex, use_coverage=True)
        entry = traced.restart()
        t.backward(loss)
    peak = traced.peak - entry
    rows, ext = len(ex.target_ext_ids), ex.ext.size
    assert rows == 15
    assert peak < model.proj_v_out.value.nbytes - rows * ext * 4


def _wide_examples(vocab_size, target_len, batch, n=30):
    """``batch`` examples over a ``vocab_size`` vocabulary: n source tokens,
    some outside it, and ``target_len`` target steps, the stop token last."""
    rng = np.random.default_rng(vocab_size + target_len)
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size - len(Vocabulary.SPECIALS))])
    examples = []
    for k in range(batch):
        ext = ExtendedVocab(vocab, [f"w{i}" for i in rng.integers(0, vocab_size + 10, n)])
        targets = [int(i) for i in rng.integers(5, ext.size, target_len - 1)] + [Vocabulary.STOP]
        dec_in = [Vocabulary.START] + [i if i < vocab.size else Vocabulary.UNK
                                       for i in targets[:-1]]
        examples.append(PreparedExample(f"wide{k}", dec_in, targets, ext))
    return examples


@pytest.mark.parametrize("vocab_size, hidden, target_len, batch", [
    (20000, 256, 60, 1), (20011, 200, 40, 2), (9001, 128, 7, 3), (6007, 96, 1, 2),
])
@pytest.mark.parametrize("clip_norm", [0.5, 1e9], ids=["clipped", "unclipped"])
def test_factored_weight_adjoints_train_to_the_dense_rules_bytes(
        monkeypatch, vocab_size, hidden, target_len, batch, clip_norm):
    # Three train_batch steps on the production tape and on one whose matmul
    # rule forms every transposed weight's adjoint dense: the same losses,
    # clip factors, values and accumulators, byte for byte.
    examples = _wide_examples(vocab_size, target_len, batch)
    runs = []
    for tape_cls in (Tape, oracles.DenseWeightTape):
        factors, factored = [], set()

        def clip(params, max_norm, inner=tape_mod.clip_global_norm):
            factored.update(p.name for p in params if isinstance(p._grad, FactoredGrad))
            factors.append(inner(params, max_norm))
            return factors[-1]

        with monkeypatch.context() as m:
            use_oracle_tape(m, tape_cls)
            m.setattr(tape_mod, "clip_global_norm", clip)
            model = SummarizerParams(vocab_size, emb_dim=32, hidden_dim=hidden, seed=1)
            cfg = RunConfig(clip_norm=clip_norm)
            losses = [train_batch(model, examples, cfg) for _ in range(3)]
        runs.append((losses, factors, [(p.value.tobytes(), p.adagrad_acc.tobytes())
                                       for p in model.params()], factored))
    assert runs[0][:3] == runs[1][:3]
    assert "proj.V_out" in runs[0][3] and not runs[1][3]
    assert all(f < 1.0 for f in factors) if clip_norm < 1 else factors == [1.0] * 3


def test_a_training_tape_holds_three_output_blocks_and_the_gathered_rows():
    # After sequence_loss the tape holds three (T x V)-or-wider arrays: the
    # logits, the vocabulary softmax and the copy mix (the mix as a chain of
    # nodes kept seven).  After backward the embedding's adjoint holds just
    # the rows the encoder and the decoder gathered.
    vocab = Vocabulary([f"w{i}" for i in range(995)])
    pair = NewsPair(id="wide", article=["w1", "zz", "w2", "zz", "qq", "w1", "w9"],
                    summary=[["zz", "w7"], ["w2"], ["qq"]])
    ex = prepare_pair(pair, vocab)
    model = tiny_summarizer(vocab_size=vocab.size, seed=1)
    t = Tape()
    loss, _, _, _ = sequence_loss(t, model, ex, use_coverage=True)
    rows = len(ex.target_ext_ids)
    wide = [node.kernel for node in t.nodes
            if node.value.shape[0] == rows and node.value.shape[1] >= vocab.size]
    assert wide == [Kernel.MATMUL, Kernel.SOFTMAX, Kernel.COPY_MIX]
    emb = t.param(model.embedding.weights)
    t.backward(loss)
    adjoint = t.nodes[emb].grad
    assert isinstance(adjoint, RowBlock) and adjoint.block.shape[1] == model.emb_dim
    assert adjoint.rows.tolist() == sorted(set(ex.ext.enc_ids + ex.dec_in_ids))


def test_a_vocab_20k_step_keeps_the_tables_accumulator_by_row():
    # Adagrad leaves a row no batch gathered at its initial value, so the
    # embedding keeps a row state of the gathered rows, made after the
    # step's tape; every other accumulator is dense.
    vocab = Vocabulary([f"w{i}" for i in range(19995)])
    rng = np.random.default_rng(0)
    article = [f"w{i}" for i in rng.integers(0, 19995, 30)] + ["zz"]
    summary = [[f"w{i}" for i in rng.integers(0, 19995, 3)] for _ in range(3)]
    ex = prepare_pair(NewsPair(id="wide", article=article, summary=summary), vocab)
    model = SummarizerParams(vocab.size, emb_dim=8, hidden_dim=8, seed=1)
    train_batch(model, [ex], RunConfig())
    table = model.embedding.weights
    assert table.shape == (20000, 8) and isinstance(table._acc, RowBlock)
    assert table._acc.rows.tolist() == sorted(set(ex.ext.enc_ids + ex.dec_in_ids))
    assert table._acc.block.shape == (len(table._acc.rows), 8)
    assert all(isinstance(p._acc, np.ndarray) and p._acc.shape == p.shape
               for p in model.params() if p is not table)


def test_training_evaluation_and_decoding_never_import_numpy_ma():
    # A bare np.unique imports numpy.ma on first use (numpy 2.4), which then
    # holds about 1 MiB for the rest of the process; the distinct ids of the
    # copy mix and the row-sparse adjoints are taken without it.
    # Two summarizer steps and a classifier epoch of two steps: each table's
    # second step merges new rows into its row state.  The summarizer's
    # vocabulary is padded with unused words, so its table stays by row.
    code = textwrap.dedent("""
        import sys
        from b3sum.classifier import (ClassifierParams, ClassifierTrainConfig,
                                      LabeledExample, train_classifier)
        from b3sum.config import RunConfig
        from b3sum.corpus import Vocabulary, build_vocab, synth_generate
        from b3sum.summarizer import (SummarizerParams, corpus_loss, decode, prepare_pair,
                                      train_batch)
        pairs = synth_generate(seed=7, n=3, oov_rate=0.3)
        words = build_vocab(pairs[1:], mode="cap", size=60)
        vocab = Vocabulary([words.token(i) for i in range(5, words.size)]
                           + [f"unused{i}" for i in range(200)])
        prepared = [prepare_pair(p, vocab) for p in pairs]
        model = SummarizerParams(vocab.size, emb_dim=4, hidden_dim=8, seed=3)
        train_batch(model, prepared[:2], RunConfig(batch_size=2), use_coverage=True)
        train_batch(model, prepared[2:], RunConfig(batch_size=1), use_coverage=True)
        assert model.embedding.weights._acc.rows.size > 0
        examples = [LabeledExample(ids=[5, 7, 9], gold=0), LabeledExample(ids=[6, 7, 2], gold=1)]
        classifier = ClassifierParams(10, emb_dim=4, hidden_dim=3, seed=1)
        train_classifier(classifier, examples, None, ClassifierTrainConfig(batch_size=1, epochs=1))
        assert classifier.embedding.weights._acc.rows.size == 5
        corpus_loss(model, prepared, use_coverage=True)
        decode(model, pairs[0].article, vocab, mode="beam", beam_size=3, max_decode_len=5)
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ)
    src = str(Path(summarizer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _mid_shape_example(target_len, n=200):
    """Vocab 200, emb 32, hidden and attn 64, a 200-token source and a
    target of ``target_len`` steps, the stop token among them."""
    rng = np.random.default_rng(0)
    vocab = Vocabulary([f"w{i}" for i in range(195)])
    article = [f"w{i}" for i in rng.integers(0, 195, n)]
    per_slot = (target_len - 3) // 3
    summary = [[f"w{i}" for i in rng.integers(0, 195, per_slot)] for _ in range(3)]
    ex = prepare_pair(NewsPair(id="mid", article=article, summary=summary), vocab)
    assert len(ex.target_ext_ids) == target_len
    return SummarizerParams(vocab.size, emb_dim=32, hidden_dim=64, seed=1), vocab, ex


def test_a_training_tape_keeps_no_array_per_target_step():
    # Doubling the target from 30 to 60 steps adds no node, and adds less
    # than half an (n x attn) float32 array per extra step to what the tape
    # holds after forward and to the traced peak through backward.  Per-step
    # LSTM nodes and one stored tanh of the attention scores per step added
    # at least a whole one.
    traced = []
    for target_len in (30, 60):
        model, _, ex = _mid_shape_example(target_len)
        with traced_peak() as memory:
            t = Tape()
            loss, _, _, _ = sequence_loss(t, model, ex)
            held = memory.held()
            t.backward(loss)
        traced.append((len(t), held, memory.peak))
    (nodes, held, peak), (nodes_2, held_2, peak_2) = traced
    budget = 30 * 200 * model.attn_dim * 4 // 2
    assert nodes_2 == nodes
    assert held_2 - held < budget
    assert peak_2 - peak < budget


def test_a_beam_decode_holds_no_values_of_past_steps():
    # Copy-only decoding of an article without </s> or <sb> runs to the
    # length cap with four live beams.  The decode tape records nothing, so
    # 20 more steps raise the traced peak by less than 64 KiB; a recording
    # tape kept every step, about 250 KiB of values per step at this shape.
    model, vocab, ex = _mid_shape_example(30, n=150)
    article = [ex.ext.token(i) for i in ex.ext.src_ext_ids]
    peaks = []
    for steps in (20, 40):
        with traced_peak() as traced:
            out = decode(model, article, vocab, mode="beam", beam_size=4, max_decode_len=steps,
                         force_p_gen=0.0)
        peaks.append(traced.peak)
        assert len(out.token_ids) == steps
    assert peaks[1] - peaks[0] < 64 * 1024


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
    # runs one row per hypothesis either way.  The copy mix is the chain of
    # nodes the copy-mix kernel replaced: the kernel keeps every forward
    # value but sums its p_gen adjoint over the source columns, which rounds
    # training differently (test_copy_mix_matches_the_chain_it_replaced).
    use_oracle_tape(monkeypatch, MixChainTape)
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
        tape = Tape()
        _, step = summarizer._teacher_forced(tape, model, ex, use_coverage, force_p_gen)
        traces = step_traces(tape, step)
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

    def test_both_trainers_make_every_accumulator_before_their_tape(self, monkeypatch):
        # The step's temporaries then sit above the long-lived optimizer
        # state, so the space they free can be reused by the next step.  An
        # embedding table's row state is made after the tape, by Adagrad.
        pairs, _ = _golden_pairs()
        vocab = Vocabulary([f"t{i}" for i in range(40)])  # the step gathers under half its rows
        summ = tiny_summarizer(vocab_size=vocab.size)
        cls = ClassifierParams(10, emb_dim=4, hidden_dim=3)
        training, ready, tables = [], [], []
        original_init = Tape.__init__

        def init(tape_self, *args, **kwargs):
            original_init(tape_self, *args, **kwargs)
            params = training[-1].params()
            ready.append([isinstance(p._acc, np.ndarray) for p in params if not p.row_sparse])
            tables.append([type(p._acc) for p in params if p.row_sparse])

        monkeypatch.setattr(Tape, "__init__", init)
        training.append(summ)
        train_batch(summ, [prepare_pair(pairs[0], vocab)], RunConfig())
        training.append(cls)
        examples = [LabeledExample(ids=[5, 7], gold=0), LabeledExample(ids=[6, 7], gold=1)]
        train_classifier(cls, examples, None, ClassifierTrainConfig(batch_size=1, epochs=1))
        assert len(ready) == 3 and all(all(r) for r in ready)
        # the classifier's second tape comes after its first step's Adagrad
        assert tables == [[type(None)], [type(None)], [RowBlock]]
        assert isinstance(summ.embedding.weights._acc, RowBlock)

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
