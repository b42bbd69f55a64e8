"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Full-scale corpus results are out of reach by design; these criteria verify
the machinery instead: gradients against finite differences, probability
normalization, coverage identities, copy behavior on synthetic data, metric
implementations against brute-force oracles, classifier and pipeline
behavior, and byte-level reproducibility.
"""

import time

import numpy as np
import pytest

from b3sum.checkpoint import load_checkpoint, save_checkpoint, tensor_map
from b3sum.classifier import (
    ClassifierParams,
    ClassifierTrainConfig,
    classify,
    evaluate_classifier,
    prepare_labeled,
    train_classifier,
    undersample_tune,
)
from b3sum.config import RunConfig
from b3sum.corpus import (
    NewsPair,
    StructureLabel,
    Vocabulary,
    build_vocab,
    split_pairs,
    synth_generate,
)
from b3sum.layers import embed_rows, lstm_step
from b3sum.metrics import annotation_stats, pairwise_align, rouge_l, rouge_n
from b3sum.pipeline import (
    auto_label_corpus,
    finetune,
    pretrain,
    StructureAwareModel,
    structure_aware_summarize,
)
from b3sum.summarizer import (
    ExtendedVocab,
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
from b3sum.tape import CopyIds, Parameter, Tape, finite_diff_check

from helpers import step_traces
from oracles import OracleTape, oracle_align, oracle_lcs, oracle_rouge_n


def _ok(name: str, detail: str = ""):
    print(f"[ACCEPTANCE PASS] {name}" + (f" ({detail})" if detail else ""))


# -- tiny fixture shared by gradient/normalization/coverage criteria ----------

TINY_TOKENS = ["t0", "t1", "t2", "t3", "t4", "t5", "t6"]


def tiny_vocab() -> Vocabulary:
    v = Vocabulary(TINY_TOKENS)
    assert v.size == 12
    return v


def tiny_pair() -> NewsPair:
    # source length 5 with one OOV ("zz"); target includes that OOV
    return NewsPair(
        id="tiny",
        article=["t0", "t1", "zz", "t2", "t3"],
        summary=[["t0"], ["zz"], ["t2"]],
    )


def tiny_model(seed=3) -> SummarizerParams:
    return SummarizerParams(vocab_size=12, emb_dim=4, hidden_dim=8, seed=seed)


def _assert_grad(build, params, what, tol=1e-3):
    report = finite_diff_check(build, params, h=1e-3, tol=tol)
    assert report.ok, f"{what}: {report} {report.failures}"
    return report.max_rel_err


class TestCriterion1GradientCorrectness:
    """Finite differences (central, h=1e-3, float64) over every kernel and
    every model component at tiny dims; max relative error <= 1e-3."""

    def test_gradient_suite(self):
        t_start = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0

        # every primitive kernel inside a small scalar graph
        a = Parameter("a", rng.uniform(-0.8, 0.8, (2, 3)))
        b = Parameter("b", rng.uniform(-0.8, 0.8, (3, 2)))
        c = Parameter("c", rng.uniform(-0.8, 0.8, (2, 2)))
        pos = Parameter("pos", rng.uniform(0.5, 1.5, (1, 4)))
        row = Parameter("row", rng.uniform(-0.8, 0.8, (1, 2)))
        bias = Parameter("bias", rng.uniform(-0.8, 0.8, (1, 2)))
        # an LSTM over 3 rows (in 2, hidden 2) from a non-zero state [h0 | c0]
        x_seq = Parameter("x_seq", rng.uniform(-0.8, 0.8, (3, 2)))
        s0 = Parameter("s0", rng.uniform(-0.8, 0.8, (1, 4)))
        w_draw, b_draw = rng.uniform(-0.8, 0.8, (8, 4)), rng.uniform(-0.8, 0.8, (1, 8))
        w_gates = [Parameter(f"W_{g}", w_draw[2 * k : 2 * k + 2]) for k, g in enumerate("ifog")]
        b_gates = [Parameter(f"b_{g}", b_draw[:, 2 * k : 2 * k + 2]) for k, g in enumerate("ifog")]
        lstm_read = rng.uniform(-1, 1, (3, 4))
        # attention of 3 query rows over 3 positions, attn 2, and with
        # coverage its chain from a non-zero coverage row; the last column
        # of the read weights the penalties
        feats = Parameter("feats", rng.uniform(-0.8, 0.8, (3, 2)))
        queries = Parameter("queries", rng.uniform(-0.8, 0.8, (3, 2)))
        v_att = Parameter("v_att", rng.uniform(-0.8, 0.8, (1, 2)))
        cov0 = Parameter("cov0", rng.uniform(0.0, 1.0, (1, 3)))
        w_cov = Parameter("w_cov", rng.uniform(-0.8, 0.8, (1, 2)))
        attn_read = rng.uniform(-1, 1, (3, 4))
        # a copy mix of 2 rows: vocab 3, 4 source positions, width 5
        gen = Parameter("gen", rng.uniform(-0.8, 0.8, (2, 3)))
        att = Parameter("att", rng.uniform(-0.8, 0.8, (2, 4)))
        gate = Parameter("gate", rng.uniform(-0.8, 0.8, (2, 1)))
        mix_read = rng.uniform(-1, 1, (2, 5))

        def k_matmul(dtype):
            t = OracleTape(dtype=dtype)
            out = t.matmul(t.param(a), t.param(b))
            return t, t.reduce_sum(t.mul(out, out))

        def k_add_mul_scale(dtype):
            t = OracleTape(dtype=dtype)
            x = t.add(t.param(c), t.scale(t.param(c), -0.3))
            return t, t.reduce_sum(t.mul(x, t.param(c)))

        def k_concat_transpose(dtype):
            t = OracleTape(dtype=dtype)
            x = t.concat([t.param(a), t.transpose(t.param(b))], axis=0)
            return t, t.reduce_mean(t.mul(x, x))

        def k_activations(dtype):
            t = OracleTape(dtype=dtype)
            x = t.tanh(t.param(c))
            y = t.sigmoid(t.param(c))
            return t, t.reduce_sum(t.mul(x, y))

        def k_softmax_pick(dtype):
            t = Tape(dtype=dtype)
            p = t.softmax(t.param(pos))
            return t, t.neg_log_pick(p, 2)

        def k_pick_rows(dtype):
            # one index per row of a (3 x 2) distribution, column 1 twice
            t = Tape(dtype=dtype)
            p = t.softmax(t.param(b))
            return t, t.reduce_mean(t.neg_log_pick(p, [1, 0, 1]))

        def k_log(dtype):
            t = OracleTape(dtype=dtype)
            return t, t.reduce_sum(t.log(t.param(pos)))

        def k_min(dtype):
            t = OracleTape(dtype=dtype)
            x = t.elementwise_min(t.param(c), t.transpose(t.scale(t.param(c), -1.0)))
            return t, t.reduce_sum(x)

        def k_mean(dtype):
            t = OracleTape(dtype=dtype)
            return t, t.reduce_mean(t.mul(t.param(a), t.param(a)))

        def k_matmul_transposed(dtype):
            t = OracleTape(dtype=dtype)
            out = t.matmul(t.param(b), t.param(c), transpose_b=True)
            return t, t.reduce_sum(t.mul(out, out))

        def k_gather(dtype):
            t = OracleTape(dtype=dtype)
            rows = t.gather_rows(t.param(b), [2, 0, 2, 1, 2])  # id 2 three times
            return t, t.reduce_sum(t.mul(rows, t.tanh(rows)))

        def k_copy_mix(dtype):
            # OOV ids 3 and 4 past the vocab of 3; id 1 repeats
            t = OracleTape(dtype=dtype)
            mix = t.copy_mix(t.sigmoid(t.param(gate)), t.softmax(t.param(gen)),
                             t.softmax(t.param(att)), CopyIds([1, 4, 1, 3], 5))
            picked = t.reduce_mean(t.neg_log_pick(mix, [1, 4]))
            return t, t.add(picked, t.reduce_sum(t.mul(mix, t.leaf(mix_read))))

        def k_slice(dtype):
            t = OracleTape(dtype=dtype)
            x = t.slice(t.param(b), (1, 3), (1, 2))
            return t, t.reduce_sum(t.mul(x, t.tanh(x)))

        def k_lstm(reverse):
            def build(dtype):
                t = OracleTape(dtype=dtype)
                out = t.lstm(t.param(x_seq), t.param(s0), [t.param(p) for p in w_gates],
                             [t.param(p) for p in b_gates], reverse)
                return t, t.reduce_sum(t.mul(out, t.leaf(lstm_read)))

            return build

        def k_attention(with_coverage):
            def build(dtype):
                t = OracleTape(dtype=dtype)
                extra = (t.param(cov0), t.param(w_cov)) if with_coverage else ()
                out = t.attention(t.param(feats), t.param(queries), t.param(v_att),
                                  t.param(bias), *extra)
                read = attn_read if with_coverage else attn_read[:, :3]
                return t, t.reduce_sum(t.mul(out, t.leaf(read)))

            return build

        lstm_params = [x_seq, s0, *w_gates, *b_gates]
        attn_kernel_params = [feats, queries, v_att, bias]
        for what, build, params in [
            ("matmul", k_matmul, [a, b]),
            ("lstm", k_lstm(False), lstm_params),
            ("lstm reversed", k_lstm(True), lstm_params),
            ("attention", k_attention(False), attn_kernel_params),
            ("attention with coverage", k_attention(True), attn_kernel_params + [cov0, w_cov]),
            ("slice", k_slice, [b]),
            ("matmul transposed", k_matmul_transposed, [b, c]),
            ("gather-rows", k_gather, [b]),
            ("copy-mix", k_copy_mix, [gen, att, gate]),
            ("add/mul/scale", k_add_mul_scale, [c]),
            ("concat/transpose", k_concat_transpose, [a, b]),
            ("tanh/sigmoid", k_activations, [c]),
            ("softmax/neg-log-pick", k_softmax_pick, [pos]),
            ("neg-log-pick per row", k_pick_rows, [b]),
            ("log", k_log, [pos]),
            ("elementwise-min", k_min, [c]),
            ("reduce-mean", k_mean, [a]),
        ]:
            worst = max(worst, _assert_grad(build, params, what))

        model = tiny_model()
        vocab = tiny_vocab()
        ex = prepare_pair(tiny_pair(), vocab)
        h_const = np.random.default_rng(1).uniform(-1, 1, (5, 16))
        s_const = np.random.default_rng(2).uniform(-1, 1, (1, 16))
        x_const = np.random.default_rng(3).uniform(-1, 1, (1, 4))
        cov_const = np.abs(np.random.default_rng(4).uniform(0, 1, (1, 5)))
        read = np.random.default_rng(5).uniform(-1, 1, (16, 1))

        # LSTM cell (two chained steps)
        def lstm_build(dtype):
            t = OracleTape(dtype=dtype)
            xs = embed_rows(t, model.embedding, [1, 2])
            s = lstm_step(t, model.decoder, xs, model.decoder.zero_state(t))
            return t, t.reduce_sum(t.mul(s, s))

        worst = max(worst, _assert_grad(
            lstm_build, model.decoder.params() + [model.embedding.weights], "lstm cell"))

        # attention with the coverage term in the scores
        def attn_build(dtype):
            t = Tape(dtype=dtype)
            h_all = t.leaf(h_const)
            s = t.leaf(s_const)
            cov = t.leaf(cov_const)
            a_t, h_star, _ = attend(t, model, h_all,
                                    t.matmul(h_all, t.param(model.attn_w_enc), transpose_b=True),
                                    s, cov)
            score = t.matmul(h_star, t.leaf(read))
            return t, t.add(score, t.neg_log_pick(a_t, 1))

        attn_params = [model.attn_v, model.attn_w_enc, model.attn_w_state,
                       model.attn_bias, model.attn_w_cov]
        worst = max(worst, _assert_grad(attn_build, attn_params, "attention+coverage"))

        # vocabulary projection
        def proj_build(dtype):
            t = Tape(dtype=dtype)
            p = vocab_distribution(t, model, t.leaf(s_const), t.leaf(h_const[:1]))
            return t, t.neg_log_pick(p, 7)

        proj_params = [model.proj_b_in, model.proj_v, model.proj_b_mid, model.proj_v_out]
        worst = max(worst, _assert_grad(proj_build, proj_params, "vocab projection"))

        # pointer mixture over the extended vocabulary (OOV target)
        def pointer_build(dtype):
            t = Tape(dtype=dtype)
            s = t.leaf(s_const)
            h_star = t.leaf(h_const[:1])
            x = t.leaf(x_const)
            cov = t.leaf(cov_const)
            a_t, _, _ = attend(t, model, h_all := t.leaf(h_const),
                               t.matmul(h_all, t.param(model.attn_w_enc), transpose_b=True),
                               s, cov)
            p_vocab = vocab_distribution(t, model, s, h_star)
            p_gen = generation_prob(t, model, h_star, s, x)
            p = final_distribution(t, p_gen, p_vocab, a_t,
                                   CopyIds(ex.ext.src_ext_ids, ex.ext.size))
            oov_id = vocab.size  # the "zz" token
            return t, t.neg_log_pick(p, oov_id)

        pointer_params = attn_params + proj_params + [
            model.ptr_w_context, model.ptr_w_state, model.ptr_w_input, model.ptr_bias]
        worst = max(worst, _assert_grad(pointer_build, pointer_params, "pointer path"))

        # fully composed per-sequence loss with coverage, every parameter
        def full_build(dtype):
            t = Tape(dtype=dtype)
            loss, _, _, _ = sequence_loss(t, model, ex, use_coverage=True, cov_lambda=1.0)
            return t, loss

        worst = max(worst, _assert_grad(full_build, model.params(), "composed step loss"))

        elapsed = time.time() - t_start
        assert elapsed < 120, f"gradient suite took {elapsed:.1f}s"
        _ok("gradient correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2Normalization:
    """1,000 random configurations: attention, vocabulary, and extended
    distributions each sum to 1 +- 1e-5; OOV support clauses hold."""

    def test_normalization_and_oov_clauses(self):
        rng = np.random.default_rng(42)
        checked = 0
        for model_idx in range(200):
            model = SummarizerParams(vocab_size=9, emb_dim=3, hidden_dim=4,
                                     seed=1000 + model_idx)
            for draw in range(5):
                n_src = int(rng.integers(2, 7))
                n_oov = int(rng.integers(0, 3))
                ext_size = 9 + n_oov
                src_ext = [int(i) for i in rng.integers(0, ext_size, size=n_src)]
                t = Tape()
                h_all = t.leaf(rng.uniform(-2, 2, (n_src, 8)))
                s = t.leaf(rng.uniform(-2, 2, (1, 8)))
                x = t.leaf(rng.uniform(-2, 2, (1, 3)))
                cov = t.leaf(np.abs(rng.uniform(0, 2, (1, n_src))))
                a_t, h_star, _ = attend(
                    t, model, h_all, t.matmul(h_all, t.param(model.attn_w_enc), transpose_b=True),
                    s, cov)
                p_vocab = vocab_distribution(t, model, s, h_star)
                p_gen = generation_prob(t, model, h_star, s, x)
                p = final_distribution(t, p_gen, p_vocab, a_t, CopyIds(src_ext, ext_size))
                assert abs(t.value(a_t).sum() - 1.0) <= 1e-5
                assert abs(t.value(p_vocab).sum() - 1.0) <= 1e-5
                assert abs(t.value(p).sum() - 1.0) <= 1e-5
                # OOV ids carry copy mass only: p_gen * P_vocab(oov) = 0
                pv = t.value(p)[0]
                att = t.value(a_t)[0]
                pg = float(t.value(p_gen)[0, 0])
                for oov_id in range(9, ext_size):
                    copy_mass = sum(att[i] for i in range(n_src) if src_ext[i] == oov_id)
                    assert pv[oov_id] == pytest.approx((1 - pg) * copy_mass, abs=1e-6)
                checked += 1
        assert checked == 1000

        # p_gen forced to 0: support is exactly the source positions
        model = SummarizerParams(vocab_size=9, emb_dim=3, hidden_dim=4, seed=7)
        t = Tape()
        src_ext = [2, 10, 5, 10]
        a_t = t.softmax(t.leaf(rng.uniform(-1, 1, (1, 4))))
        p_vocab = t.softmax(t.leaf(rng.uniform(-1, 1, (1, 9))))
        p = final_distribution(t, t.leaf([[0.0]]), p_vocab, a_t, CopyIds(src_ext, 11))
        pv = t.value(p)[0]
        for i, mass in enumerate(pv):
            if i in src_ext:
                assert mass > 0
            else:
                assert mass == 0.0
        assert abs(pv.sum() - 1.0) <= 1e-6
        _ok("normalization", "1000 configurations, OOV clauses exact")


class TestCriterion3CoverageIdentities:
    def test_coverage_mass_penalty_and_decomposition(self):
        vocab = tiny_vocab()
        ex = prepare_pair(tiny_pair(), vocab)
        model = tiny_model(seed=11)

        # sum_i c^t_i == t: exact up to accumulated float rounding
        for dtype, tol in ((np.float64, 1e-9), (np.float32, 2e-4)):
            t = Tape(dtype=dtype)
            _, _, _, step = sequence_loss(t, model, ex, use_coverage=True)
            for i, tr in enumerate(step_traces(t, step)):
                assert abs(tr.coverage_before.sum() - i) <= tol
                assert -1e-6 <= tr.penalty <= 1.0 + 1e-6

        # the same identities along a decoded trajectory
        out = decode(model, tiny_pair().article, vocab, max_decode_len=20,
                     use_coverage=True, collect_traces=True)
        for step, tr in enumerate(out.traces):
            assert abs(tr.coverage_before.sum() - step) <= 2e-4
            assert -1e-6 <= tr.penalty <= 1.0 + 1e-6

        # loss decomposition, bit-exact on shared parameters (w_c zeroed so
        # both runs see identical attention)
        pairs = synth_generate(seed=3, n=2, oov_rate=0.5)
        big_vocab = build_vocab(synth_generate(seed=99, n=30, oov_rate=0.0),
                                mode="cap", size=90)
        lam = np.float32(1.0)
        for pair in [tiny_pair()] + pairs:
            v = vocab if pair.id == "tiny" else big_vocab
            m = SummarizerParams(v.size, emb_dim=4, hidden_dim=8, seed=5)
            m.attn_w_cov.value[...] = 0.0
            ex2 = prepare_pair(pair, v)
            t0 = Tape()
            plain, _, _, _ = sequence_loss(t0, m, ex2, use_coverage=False)
            t1 = Tape()
            combined, nll, pen, _ = sequence_loss(t1, m, ex2, use_coverage=True,
                                                  cov_lambda=float(lam))
            assert t1.value(nll)[0, 0] == t0.value(plain)[0, 0]
            replay = t0.value(plain)[0, 0] + t1.value(pen)[0, 0] * lam
            assert t1.value(combined)[0, 0] == replay
        _ok("coverage identities", "mass=t, penalty in [0,1], bit-exact decomposition")


class TestCriterion4CopyTask:
    """500 synthetic pairs at oov_rate 0.2, hidden 64: held-out token accuracy
    >= 90%, OOV-position accuracy >= 80%, under 10 minutes; forcing pure
    generation collapses OOV accuracy to zero."""

    def test_copy_task_integration(self):
        t_start = time.time()
        pairs = synth_generate(seed=101, n=500, oov_rate=0.2)
        train, dev, test = split_pairs(pairs, sizes=(440, 30, 30), seed=1)
        vocab = build_vocab(train, mode="min_count", min_count=20)
        assert vocab.size < 80  # fresh per-pair names stayed out

        model = SummarizerParams(vocab.size, emb_dim=64, hidden_dim=64, seed=5)
        prepared = [prepare_pair(p, vocab) for p in train]
        heldout = [prepare_pair(p, vocab) for p in dev + test]
        n_oov = sum(1 for e in heldout for i in e.target_ext_ids if i >= vocab.size)
        assert n_oov >= 20, "held-out set must exercise OOV targets"

        cfg = RunConfig(lr=0.3, clip_norm=2.0, batch_size=8, seed=2)
        rng = np.random.default_rng(2)
        acc = {"accuracy": 0.0, "oov_accuracy": 0.0}
        epochs_run = 0
        for epoch in range(30):
            order = rng.permutation(len(prepared))
            for s in range(0, len(prepared), cfg.batch_size):
                train_batch(model, [prepared[i] for i in order[s : s + cfg.batch_size]], cfg)
            epochs_run = epoch + 1
            acc = token_prediction_accuracy(model, heldout)
            if acc["accuracy"] >= 0.93 and acc["oov_accuracy"] >= 0.9:
                break
        elapsed = time.time() - t_start
        assert acc["accuracy"] >= 0.90, acc
        assert acc["oov_accuracy"] >= 0.80, acc
        assert elapsed < 600, f"copy task took {elapsed:.0f}s"

        # ablation: pure generation cannot emit extended-vocabulary ids
        forced = token_prediction_accuracy(model, heldout, force_p_gen=1.0)
        assert forced["oov_accuracy"] == 0.0
        assert forced["oov_tokens"] == acc["oov_tokens"]

        # decode spot check: copied OOV surface forms appear in the output
        copied_oov = 0
        r1 = []
        for pair in (dev + test)[:10]:
            out = decode(model, pair.article, vocab, mode="greedy", max_decode_len=40)
            flat = [tok for s in out.sentences for tok in s]
            ref = [tok for s in pair.summary for tok in s]
            r1.append(rouge_n(flat, ref, 1).f1)
            doc_oovs = set(ExtendedVocab(vocab, pair.article).doc_oovs)
            copied_oov += bool(doc_oovs & set(flat))
        assert np.mean(r1) >= 0.5
        assert copied_oov >= 1
        _ok(
            "copy-task integration",
            f"acc {acc['accuracy']:.3f}, oov {acc['oov_accuracy']:.3f}, "
            f"{epochs_run} epochs, {elapsed:.0f}s, decode R1 {np.mean(r1):.2f}",
        )


class TestCriterion5RougeOracle:
    def test_rouge_matches_bruteforce(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n_s, n_r = rng.integers(0, 13), rng.integers(0, 13)
            s = [str(rng.integers(0, 6)) for _ in range(n_s)]
            r = [str(rng.integers(0, 6)) for _ in range(n_r)]
            for n in (1, 2):
                got = rouge_n(s, r, n)
                assert (got.precision, got.recall, got.f1) == oracle_rouge_n(s, r, n)
            got_l = rouge_l(s, r)
            lcs = oracle_lcs(s, r)
            assert got_l.precision == (lcs / len(s) if s else 0.0)
            assert got_l.recall == (lcs / len(r) if r else 0.0)

        assert rouge_n("a b d".split(), "a b c".split(), 1).f1 == 2 / 3
        assert rouge_n("a b c d".split(), "a b c".split(), 2).f1 == 0.8
        assert rouge_l("a c b d".split(), "a b c d".split()).f1 == 0.75
        _ok("rouge oracle equivalence", "200 random pairs exact + 3 fixtures")


class TestCriterion6AlignmentOracle:
    def test_alignment_matches_exhaustive_search(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            sys_s = [[str(rng.integers(0, 5)) for _ in range(rng.integers(0, 7))]
                     for _ in range(3)]
            ref_s = [[str(rng.integers(0, 5)) for _ in range(rng.integers(0, 7))]
                     for _ in range(3)]
            got = pairwise_align(sys_s, ref_s)
            perm, slot_f1 = oracle_align(sys_s, ref_s)
            assert got.perm == perm
            assert [s.f1 for s in got.slot_scores] == slot_f1

        ref = [["a", "b"], ["c", "d"], ["e", "f"]]
        assert pairwise_align(ref, ref).pattern == "123"
        assert pairwise_align([ref[1], ref[0], ref[2]], ref).pattern == "213"
        _ok("alignment oracle", "200 random triples exact + fixtures")


class TestCriterion7Classifier:
    def test_macro_f1_on_synthetic_summaries(self):
        t_start = time.time()
        pairs = synth_generate(seed=201, n=1000, oov_rate=0.2, structure_mix=0.8)
        train, dev, test = split_pairs(pairs, sizes=(800, 100, 100), seed=3)
        vocab = build_vocab(train, mode="min_count", min_count=20)
        tr = prepare_labeled(train, vocab, "summary")
        he = prepare_labeled(dev + test, vocab, "summary")
        model = ClassifierParams(vocab.size, emb_dim=48, hidden_dim=48, seed=4)
        macro_f1 = 0.0
        epochs_run = 0
        for epoch in range(20):
            cfg = ClassifierTrainConfig(emb_dim=48, hidden_dim=48, lr=0.2,
                                        batch_size=16, epochs=1, seed=40 + epoch)
            train_classifier(model, tr, None, cfg)
            epochs_run = epoch + 1
            rep = evaluate_classifier(model, he)
            macro_f1 = sum(rep["per_class"][c]["f1"] for c in ("parallel", "sequence")) / 2
            if macro_f1 >= 0.97:
                break
        elapsed = time.time() - t_start
        assert macro_f1 >= 0.95, f"macro-F1 {macro_f1:.3f} after {epochs_run} epochs"
        assert elapsed < 120, f"classifier training took {elapsed:.0f}s"
        _ok("classifier", f"macro-F1 {macro_f1:.3f}, {epochs_run} epochs, {elapsed:.0f}s")

    def test_undersampling_hits_precision_target(self):
        pairs = synth_generate(seed=202, n=220, oov_rate=0.0, structure_mix=0.75)
        train, dev, _ = split_pairs(pairs, sizes=(160, 60, 0), seed=5)
        vocab = build_vocab(pairs, mode="min_count", min_count=2)
        tr = prepare_labeled(train, vocab, "summary")
        he = prepare_labeled(dev, vocab, "summary")
        cfg = ClassifierTrainConfig(emb_dim=32, hidden_dim=32, lr=0.3,
                                    batch_size=8, epochs=8, seed=6)
        result = undersample_tune(tr, he, cfg, vocab.size, target_precision=0.8)
        assert result.qualified, result.trials
        for cls in ("parallel", "sequence"):
            assert result.heldout["per_class"][cls]["precision"] > 0.8
        _ok("undersample tuning", f"ratio {result.ratio}, "
            f"min precision {min(t['min_precision'] for t in result.trials if t['qualified']):.2f}")


class TestCriterion8Pipeline:
    def test_pretrain_autolabel_finetune_route(self, tmp_path):
        cfg = RunConfig(hidden_dim=32, emb_dim=32, classifier_emb_dim=32,
                        classifier_hidden_dim=32, batch_size=8, lr=0.3,
                        max_decode_len=30, seed=9, tau=0.8)
        pairs = synth_generate(seed=301, n=240, oov_rate=0.1, structure_mix=0.7)
        train, heldout = pairs[:200], pairs[200:]
        vocab = build_vocab(train, mode="min_count", min_count=15)

        base, base_info = pretrain(train, vocab, cfg, steps=40,
                                   out_path=tmp_path / "base.ckpt")

        # summary classifier on gold labels, then automatic labeling
        cls_cfg = ClassifierTrainConfig(emb_dim=32, hidden_dim=32, lr=0.3,
                                        batch_size=8, epochs=6, seed=9)
        cls = ClassifierParams(vocab.size, 32, 32, seed=9)
        train_classifier(cls, prepare_labeled(train, vocab, "summary"), None, cls_cfg)
        par, seq, rest, counts = auto_label_corpus(cls, vocab, train, cfg.tau)
        assert counts["parallel"] > 0 and counts["sequence"] > 0
        assert counts["parallel"] + counts["sequence"] + counts["rest"] == len(train)

        par_model, par_info = finetune(tmp_path / "base.ckpt", par, "parallel", vocab,
                                       cfg, steps=30, out_path=tmp_path / "par.ckpt")
        seq_model, seq_info = finetune(tmp_path / "base.ckpt", seq, "sequence", vocab,
                                       cfg, steps=30, out_path=tmp_path / "seq.ckpt")
        assert par_info["base_digest"] == seq_info["base_digest"]

        # each sub-model strictly improves on its own subset's held-out pairs
        for sub_model, label in ((par_model, StructureLabel.PARALLEL),
                                 (seq_model, StructureLabel.SEQUENCE)):
            subset_heldout = [prepare_pair(p, vocab) for p in heldout if p.label is label]
            assert subset_heldout
            base_loss = corpus_loss(base, subset_heldout)
            tuned_loss = corpus_loss(sub_model, subset_heldout)
            assert tuned_loss < base_loss, (label, base_loss, tuned_loss)

        # article classifier for routing
        art_cls = ClassifierParams(vocab.size, 32, 32, seed=10)
        train_classifier(art_cls, prepare_labeled(train, vocab, "article"), None, cls_cfg)
        sam = StructureAwareModel(
            article_classifier=art_cls,
            parallel_model=par_model,
            sequence_model=seq_model,
            vocab=vocab,
            classifier_vocab=vocab,
        )
        three = routed = 0
        articles = [p.article for p in pairs[:200]]
        for article in articles:
            out = structure_aware_summarize(sam, article, cfg)
            three += len(out["summary"]) == 3
            standalone = classify(art_cls, vocab.encode(article[: cfg.max_src_len]))
            routed += out["chosen_label"] == standalone.label
        assert three == 200
        assert routed == 200
        _ok("pipeline", f"labels {counts}, fine-tunes improved, 200/200 routed")


class TestCriterion9ReproducibilityAndFormats:
    def test_identical_runs_bit_identical_checkpoints(self, tmp_path):
        pairs = synth_generate(seed=401, n=24, oov_rate=0.1)
        vocab = build_vocab(pairs, mode="cap", size=90)
        cfg = RunConfig(hidden_dim=8, emb_dim=8, batch_size=4, seed=3)
        pretrain(pairs, vocab, cfg, steps=5, out_path=tmp_path / "a.ckpt")
        pretrain(pairs, vocab, cfg, steps=5, out_path=tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

        model = SummarizerParams(vocab.size, 8, 8, seed=12)
        save_checkpoint(tensor_map(model.params()), tmp_path / "rt.ckpt", cfg.hash_bytes())
        tensors, stored = load_checkpoint(tmp_path / "rt.ckpt")
        assert stored == cfg.hash_bytes()
        for p in model.params():
            assert tensors[p.name].tobytes() == p.value.tobytes()
        _ok("reproducibility", "training and round trips byte-identical")

    def test_annotation_stats_reproduce_reference_counts(self):
        reference = {
            "dev": {"parallel": 843, "parallel_enum": 72, "sequence": 268, "sequence_seg": 12},
            "test": {"parallel": 755, "parallel_enum": 65, "sequence": 275, "sequence_seg": 5},
        }
        splits = {
            name: [lab for key, count in counts.items()
                   for lab in [StructureLabel(key)] * count]
            for name, counts in reference.items()
        }
        table = annotation_stats(splits)
        assert table["parallel"] == {"dev": 843, "test": 755, "total": 1598}
        assert table["parallel_enum"] == {"dev": 72, "test": 65, "total": 137}
        assert table["sequence"] == {"dev": 268, "test": 275, "total": 543}
        assert table["sequence_seg"] == {"dev": 12, "test": 5, "total": 17}
        _ok("annotation stats", "reference table reproduced exactly")
