"""Kernel semantics, backward correctness, optimizer, and the grad checker."""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from b3sum import classifier, summarizer
from b3sum.classifier import ClassifierParams, ClassifierTrainConfig, LabeledExample
from b3sum.config import RunConfig
from b3sum.tape import (
    ADAGRAD_INIT_ACC,
    SUM_CHUNK,
    CopyIds,
    DimensionError,
    FactoredGrad,
    GradCheckReport,
    Kernel,
    NonFiniteError,
    Parameter,
    RowBlock,
    Tape,
    _softmax,
    _sum_of_squares,
    adagrad_step,
    batch_order,
    clip_global_norm,
    finite_diff_check,
    global_grad_norm,
    optimizer_step,
    train_steps,
    zero_grads,
)

import oracles
from helpers import tiny_corpus, tiny_summarizer, traced_peak
from oracles import (MixChainTape, OracleTape, dense_acc_row_step, reference_adagrad_step,
                     reference_clip_global_norm, use_oracle_tape)


class TestKernelForward:
    def test_softmax_uniform_logits(self):
        t = Tape()
        out = t.softmax(t.leaf([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(t.value(out), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)

    def test_elementwise_min(self):
        t = OracleTape()
        out = t.elementwise_min(t.leaf([[0.2, 0.9]]), t.leaf([[0.5, 0.1]]))
        np.testing.assert_allclose(t.value(out), [[0.2, 0.1]], atol=1e-7)

    def test_matmul_zero_annihilates(self):
        t = Tape()
        out = t.matmul(t.leaf(np.zeros((2, 3))), t.leaf(np.ones((3, 1))))
        np.testing.assert_array_equal(t.value(out), np.zeros((2, 1)))

    def test_matmul_dim_mismatch_names_kernel(self):
        t = Tape()
        with pytest.raises(DimensionError, match="matmul"):
            t.matmul(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((2, 3))))

    def test_elementwise_dim_mismatch(self):
        t = OracleTape()
        with pytest.raises(DimensionError, match="elementwise-min"):
            t.elementwise_min(t.leaf([[1.0, 2.0]]), t.leaf([[1.0, 2.0, 3.0]]))

    def test_add_broadcasts_row(self):
        t = Tape()
        out = t.add(t.leaf(np.ones((3, 2))), t.leaf([[1.0, 2.0]]))
        np.testing.assert_allclose(t.value(out), [[2, 3]] * 3)

    def test_add_rejects_outer_broadcast(self):
        t = Tape()
        with pytest.raises(DimensionError):
            t.add(t.leaf(np.ones((3, 1))), t.leaf(np.ones((1, 2))))

    def test_concat_axes(self):
        t = Tape()
        a, b = t.leaf([[1.0, 2.0]]), t.leaf([[3.0, 4.0]])
        np.testing.assert_array_equal(t.value(t.concat([a, b], axis=1)), [[1, 2, 3, 4]])
        np.testing.assert_array_equal(t.value(t.concat([a, b], axis=0)), [[1, 2], [3, 4]])

    def test_concat_of_one_node_is_that_node(self):
        t = Tape()
        a = t.leaf([[1.0, 2.0]])
        assert t.concat([a], axis=1) == a and t.concat([a], axis=0) == a
        assert len(t) == 1

    def test_reduce_mean_and_scale(self):
        t = Tape()
        x = t.leaf([[1.0, 2.0, 3.0, 6.0]])
        assert t.value(t.reduce_mean(x))[0, 0] == 3.0
        np.testing.assert_allclose(t.value(t.scale(x, -0.5)), [[-0.5, -1, -1.5, -3]])

    def test_neg_log_pick_certain_target(self):
        t = Tape()
        p = t.leaf([[0.0, 1.0, 0.0]])
        assert abs(t.value(t.neg_log_pick(p, 1))[0, 0]) < 1e-6

    def test_neg_log_pick_index_out_of_range(self):
        t = Tape()
        with pytest.raises(DimensionError, match="neg-log-pick"):
            t.neg_log_pick(t.leaf([[1.0, 0.0]]), 5)

    def test_neg_log_pick_one_index_per_row(self):
        t = Tape()
        p = t.leaf([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]])
        np.testing.assert_allclose(t.value(t.neg_log_pick(p, [0, 2])),
                                   -np.log([[0.5], [0.8]]), rtol=1e-6)
        with pytest.raises(DimensionError, match="index 3 at row 1 out of range"):
            t.neg_log_pick(p, [2, 3])
        with pytest.raises(DimensionError, match="index -1 at row 0"):
            t.neg_log_pick(p, [-1, 0])
        with pytest.raises(DimensionError, match="1 indices for 2 rows"):
            t.neg_log_pick(p, 1)

    def test_transpose(self):
        t = OracleTape()
        out = t.transpose(t.leaf([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(t.value(out), [[1, 3], [2, 4]])

    def test_matmul_transposed_second_operand(self):
        t = Tape()
        a, w = t.leaf([[1.0, 2.0]]), t.leaf([[1.0, 0.0], [3.0, -1.0], [0.5, 2.0]])
        np.testing.assert_array_equal(t.value(t.matmul(a, w, transpose_b=True)), [[1, 1, 4.5]])
        with pytest.raises(DimensionError, match="matmul"):
            t.matmul(a, t.leaf(np.ones((3, 3))), transpose_b=True)

    def test_sequence_kernels_name_themselves_on_bad_dims(self):
        t = Tape()
        x, s0 = t.leaf(np.ones((3, 2))), t.leaf(np.ones((1, 4)))
        with pytest.raises(DimensionError, match="lstm: inputs"):
            t.lstm(x, s0, [t.leaf(np.ones((2, 3)))] * 4, [t.leaf(np.ones((1, 2)))] * 4)
        feats, queries, row = t.leaf(np.ones((3, 2))), t.leaf(np.ones((2, 2))), t.leaf([[1.0, 2.0]])
        with pytest.raises(DimensionError, match=r"attention: .*coverage \(1, 2\)"):
            t.attention(feats, queries, row, row, t.leaf(np.ones((1, 2))), row)
        # one coverage row per query row is not taken: the chain starts from one row
        with pytest.raises(DimensionError, match=r"attention: .*coverage \(2, 3\)"):
            t.attention(feats, queries, row, row, t.leaf(np.ones((2, 3))), row)
        with pytest.raises(DimensionError, match="slice"):
            t.slice(x, (2, 4))

    def test_slice_takes_a_block_and_its_adjoint_lands_there(self):
        t = OracleTape()
        x = t.leaf(np.arange(12.0).reshape(3, 4), needs_grad=True)
        block = t.slice(x, (1, 3), (2, 4))
        np.testing.assert_array_equal(t.value(block), [[6, 7], [10, 11]])
        t.backward(t.reduce_sum(block))
        np.testing.assert_array_equal(t.grad(x), [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])

    def test_gather_rows_repeats_ids_in_order(self):
        t = Tape()
        x = t.leaf([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(t.value(t.gather_rows(x, [2, 0, 2])),
                                      [[5, 6], [1, 2], [5, 6]])

    def test_gather_rows_out_of_range_names_position(self):
        t = Tape()
        x = t.leaf(np.zeros((3, 2)))
        with pytest.raises(IndexError, match="gather-rows: id 3 at position 2"):
            t.gather_rows(x, [0, 1, 3])
        with pytest.raises(IndexError, match="gather-rows: id -1 at position 0"):
            t.gather_rows(x, [-1])

    def test_copy_mix_accumulates_repeated_ids(self):
        # p_gen 0.5: half of [0.6, 0.4] padded to width 5, plus half the
        # attention [0.1, 0.2, 0.3, 0.4] copied onto ids [3, 0, 3, 1]
        t = Tape()
        out = t.copy_mix(t.leaf([[0.5]]), t.leaf([[0.6, 0.4]]), t.leaf([[0.1, 0.2, 0.3, 0.4]]),
                         CopyIds([3, 0, 3, 1], 5))
        np.testing.assert_allclose(t.value(out), [[0.4, 0.4, 0.0, 0.2, 0.0]], atol=1e-7)

    def test_copy_mix_rejects_bad_ids(self):
        with pytest.raises(IndexError, match="copy-mix: id 4 at position 1"):
            CopyIds([0, 4], 4)
        with pytest.raises(IndexError, match="copy-mix: id -1 at position 0"):
            CopyIds([-1, 0], 4)
        t = Tape()
        with pytest.raises(DimensionError, match="copy-mix: .* do not fit 3 ids of width 4"):
            t.copy_mix(t.leaf([[1.0]]), t.leaf([[1.0, 0.0]]), t.leaf([[0.5, 0.5]]),
                       CopyIds([0, 1, 2], 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one_and_positive(logits):
    t = Tape()
    out = t.value(t.softmax(t.leaf([logits])))
    assert abs(out.sum() - 1.0) <= 1e-6
    assert (out > 0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_adjoint_is_written_into_its_incoming_adjoint(dtype):
    # y * (g - dot) formed in place in g, the softmax's own adjoint, keeps
    # the bytes of the formula.
    rng = np.random.default_rng(4)
    logits, weights = rng.standard_normal((2, 3, 7))
    t = OracleTape(dtype=dtype)
    x = t.leaf(logits, needs_grad=True)
    y = t.softmax(x)
    w = t.leaf(weights)
    yv = t.value(y).copy()
    t.backward(t.reduce_sum(t.mul(y, w)))
    g = t.value(w)  # the mul's adjoint of y
    want = yv * (g - (g * yv).sum(axis=-1, keepdims=True))
    assert t.grad(x).dtype == dtype and t.grad(x).tobytes() == want.tobytes()


def test_softmax_makes_one_array_of_its_input_size():
    # The shifted logits are exponentiated and normalised in place: one
    # (T x V) array where the formula written out makes three, same bytes.
    v = np.random.default_rng(5).standard_normal((60, 20000)).astype(np.float32)
    with traced_peak() as traced:
        out = _softmax(v)
    assert traced.peak <= v.nbytes + (1 << 16)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    assert out.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


class TestBackward:
    def test_quadratic(self):
        t = OracleTape()
        x = t.leaf([[1.0, 2.0]], needs_grad=True)
        t.backward(t.reduce_sum(t.mul(x, x)))
        np.testing.assert_allclose(t.grad(x), [[2.0, 4.0]])

    def test_tanh_at_zero(self):
        t = OracleTape()
        x = t.leaf([[0.0]], needs_grad=True)
        t.backward(t.reduce_sum(t.tanh(x)))
        np.testing.assert_allclose(t.grad(x), [[1.0]])

    def test_non_scalar_loss_rejected(self):
        t = OracleTape()
        x = t.leaf([[1.0, 2.0]], needs_grad=True)
        with pytest.raises(DimensionError, match="scalar"):
            t.backward(t.mul(x, x))

    def test_parameter_grads_accumulate_across_uses(self):
        p = Parameter("w", [[2.0]])
        t = OracleTape()
        n = t.param(p)
        # w*w + 3*w -> d/dw = 2w + 3 = 7
        loss = t.reduce_sum(t.add(t.mul(n, n), t.scale(n, 3.0)))
        t.backward(loss)
        np.testing.assert_allclose(p.grad, [[7.0]])

    def test_unreachable_parameter_grad_stays_zero(self):
        p, q = Parameter("used", [[1.0]]), Parameter("unused", [[1.0]])
        t = OracleTape()
        t.param(q)
        t.backward(t.reduce_sum(t.param(p)))
        np.testing.assert_array_equal(q.grad, [[0.0]])
        np.testing.assert_array_equal(p.grad, [[1.0]])

    def test_composed_attention_step_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w = Parameter("w", rng.uniform(-0.5, 0.5, size=(4, 3)))
        v = Parameter("v", rng.uniform(-0.5, 0.5, size=(1, 4)))
        b = Parameter("b", rng.uniform(-0.5, 0.5, size=(1, 4)))
        h = rng.uniform(-1, 1, size=(5, 3))

        def build(dtype):
            t = OracleTape(dtype=dtype)
            hn = t.leaf(h)
            pre = t.add(t.matmul(hn, t.param(w), transpose_b=True), t.param(b))
            scores = t.matmul(t.tanh(pre), t.param(v), transpose_b=True)
            attn = t.softmax(t.transpose(scores))
            ctx = t.matmul(attn, hn)
            return t, t.reduce_sum(t.mul(ctx, ctx))

        report = finite_diff_check(build, [w, v, b], h=1e-3, tol=1e-3)
        assert report.ok, report

    def test_add_input_with_a_second_consumer_matches_finite_differences(self):
        # add hands its own adjoint to both inputs; tanh(x) then accumulates
        # into x's grad, which must not reach y's.
        rng = np.random.default_rng(1)
        x = Parameter("x", rng.uniform(-1, 1, size=(1, 3)))
        y = Parameter("y", rng.uniform(-1, 1, size=(1, 3)))

        def build(dtype):
            t = OracleTape(dtype=dtype)
            xn, yn = t.param(x), t.param(y)
            side = t.tanh(xn)
            z = t.add(xn, yn)
            return t, t.reduce_sum(t.add(t.mul(z, z), t.mul(side, side)))

        report = finite_diff_check(build, [x, y], h=1e-3, tol=1e-3)
        assert report.ok, report

    def test_only_leaves_keep_grads(self):
        p = Parameter("w", [[0.5, -0.2], [0.1, 0.3], [0.7, 0.4]])
        t = OracleTape()
        x = t.leaf([[1.0, -1.0]], needs_grad=True)
        w = t.param(p)
        rows = t.gather_rows(w, [2, 0, 2])
        scores = t.tanh(t.matmul(rows, x, transpose_b=True))
        mass = t.copy_mix(t.leaf([[0.0]]), t.leaf([[0.5, 0.5]]), t.softmax(t.transpose(scores)),
                          CopyIds([1, 0, 1], 3))
        t.backward(t.neg_log_pick(mass, 1))
        held = [nid for nid, node in enumerate(t.nodes) if node.grad is not None]
        assert held == [x, w]
        assert np.abs(p.grad).sum() > 0

    def test_bit_identical_reruns(self):
        def run():
            t = Tape()
            x = t.leaf([[0.3, -0.7, 2.0]], needs_grad=True)
            y = t.softmax(t.tanh(t.scale(x, 1.7)))
            y_bytes = t.value(y).tobytes()  # backward releases it
            t.backward(t.neg_log_pick(y, 2))
            return y_bytes, t.grad(x).tobytes()

        assert run() == run()


def _attention_run(dtype, coverage, chain):
    """Value and input adjoints of attention over 3 query rows, read through
    a random weighting of the weights and of the coverage penalties.  With
    ``chain`` it is built from the nodes the kernel replaced: the scores
    and a softmax node, and with coverage per row a slice, scores, softmax,
    elementwise-min, reduce-sum and add."""
    rng = np.random.default_rng(7)
    n, d, rows = 6, 5, 3
    t = OracleTape(dtype)
    shapes = dict(feats=(n, d), queries=(rows, d), v=(1, d), bias=(1, d), cov=(1, n), w_c=(1, d))
    x = {k: t.leaf(rng.uniform(0 if k == "cov" else -1, 1, shape), needs_grad=True)
         for k, shape in shapes.items()}
    read_a, read_p = rng.standard_normal((rows, n)), rng.standard_normal((rows, 1))
    scored = [x[k] for k in ("feats", "queries", "v", "bias")]
    penalties = None
    if not coverage:
        del x["cov"], x["w_c"]
        a = t.softmax(t.attention_scores(*scored)) if chain else t.attention(*scored)
    elif not chain:
        out = t.attention(*scored, x["cov"], x["w_c"])
        a, penalties = t.slice(out, cols=(0, n)), t.slice(out, cols=(n, n + 1))
    else:
        c, a_rows, p_rows = x["cov"], [], []
        for r in range(rows):
            q = t.slice(x["queries"], (r, r + 1))
            a_rows.append(t.softmax(t.attention_scores(*scored[:1], q, *scored[2:], c, x["w_c"])))
            p_rows.append(t.reduce_sum(t.elementwise_min(a_rows[-1], c)))
            c = t.add(c, a_rows[-1])
        a, penalties = t.concat(a_rows, axis=0), t.concat(p_rows, axis=0)
    values = [t.value(a).tobytes()]
    loss = t.reduce_sum(t.mul(a, t.leaf(read_a)))
    if penalties is not None:
        values.append(t.value(penalties).tobytes())
        loss = t.add(loss, t.reduce_sum(t.mul(penalties, t.leaf(read_p))))
    t.backward(loss)
    return values, {k: t.grad(node) for k, node in x.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("coverage", [False, True])
def test_attention_is_byte_equal_to_the_nodes_it_replaced(dtype, coverage):
    # The attention kernel keeps every forward bit of the nodes it replaced.
    # Without coverage every adjoint is the same bytes too.  With coverage
    # the kernel adds a row's adjoint parts in its own order (in a model
    # the parts from a's readers come first, the chain's after them), so
    # each input adjoint is held within 1e-5 of its largest entry.
    values, grads = _attention_run(dtype, coverage, chain=False)
    want_values, want_grads = _attention_run(dtype, coverage, chain=True)
    assert values == want_values
    assert grads.keys() == want_grads.keys()
    for k, want in want_grads.items():
        assert grads[k].dtype == want.dtype == dtype
        if coverage:
            assert np.abs(grads[k] - want).max() <= 1e-5 * np.abs(want).max(), k
        else:
            assert grads[k].tobytes() == want.tobytes(), k


def _copy_mix_run(tape_cls, dtype, p_gen, rows, vocab, n, width, seed):
    """Value and input adjoints (p_vocab's logits, attention's logits and
    p_gen's logit) of one copy mix on softmax inputs, read through a random
    weighting of every output column."""
    rng = np.random.default_rng(seed)
    t = tape_cls(dtype)
    logits = [t.leaf(rng.standard_normal(shape), needs_grad=True)
              for shape in ((rows, vocab), (rows, n), (rows, 1))]
    gate = t.sigmoid(logits[2]) if p_gen is None else t.leaf(np.full((rows, 1), p_gen))
    pool = np.concatenate([rng.choice(vocab, n // 2, replace=False), np.arange(vocab, width)])
    src = rng.choice(pool, n)
    src[0], src[1] = width - 1, src[2]  # an OOV id, and a repeated one
    mix = t.copy_mix(gate, t.softmax(logits[0]), t.softmax(logits[1]), CopyIds(src, width))
    value = t.value(mix).tobytes()
    t.backward(t.reduce_sum(t.mul(mix, t.leaf(rng.standard_normal((rows, width))))))
    return value, [t.grad(x) for x in logits]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p_gen", [None, 0.0, 1.0, 0.3], ids=["learned", "0", "1", "0.3"])
@pytest.mark.parametrize("rows, vocab, n, width", [(4, 9, 7, 12), (5, 3000, 40, 3004)],
                         ids=["small", "wide"])
def test_copy_mix_matches_the_chain_it_replaced(dtype, p_gen, rows, vocab, n, width):
    # oracles.MixChainTape builds the pad, concat, scatter-add, scale, add,
    # mul, mul, add chain.  The kernel's value and its p_vocab and attention
    # adjoints are the same bytes.  Its p_gen adjoint, the generated mass
    # less the copied mass, sums over the n source columns where the chain
    # summed (T x width) products, so it is held within 1e-5 of the largest
    # grad: the two masses nearly cancel.
    for seed in range(3):
        value, grads = _copy_mix_run(OracleTape, dtype, p_gen, rows, vocab, n, width, seed)
        want_value, want = _copy_mix_run(MixChainTape, dtype, p_gen, rows, vocab, n, width, seed)
        assert value == want_value
        assert grads[0].tobytes() == want[0].tobytes()
        assert grads[1].tobytes() == want[1].tobytes()
        if p_gen is not None:
            assert grads[2] is None and want[2] is None
            continue
        assert grads[2].dtype == want[2].dtype == dtype
        scale = max(np.abs(w).max() for w in want)
        assert np.abs(grads[2] - want[2]).max() <= 1e-5 * scale


def test_copy_mix_backward_peak_is_one_vocab_block():
    # At paper shape (T 60, vocab 20,000, n 400) the rule's only (T x V)
    # array is the p_vocab adjoint it hands on; the p_gen sums read the
    # vocab columns in place, so nothing else in the rule is vocab-wide.
    # Measured: 4.70 MiB, against 5.13 MiB when the sums were taken over
    # (T x width) blocks as the replaced chain took them; a (T x V) product
    # temporary would hold two vocab blocks.
    rows, vocab, n = 60, 20000, 400
    rng = np.random.default_rng(0)
    t = Tape()
    inputs = [t.leaf(rng.random(shape), needs_grad=True)
              for shape in ((rows, 1), (rows, vocab), (rows, n))]
    mix = t.copy_mix(*inputs, CopyIds(rng.integers(0, vocab + 40, n), vocab + 40))
    g = rng.standard_normal((rows, vocab + 40)).astype(np.float32)
    with traced_peak() as traced:
        t._accumulate_input_grads(t.nodes[mix], g)
    assert all(t.grad(x) is not None for x in inputs)
    assert traced.peak <= rows * vocab * 4 + (1 << 19)


def test_every_kernel_is_made_by_production_code(monkeypatch):
    # A kernel only tests build belongs on oracles.OracleTape: coverage-on
    # training, a greedy decode and a classifier epoch between them make
    # every kernel the library's tape defines.
    made = set()
    append = Tape._append

    def recording(self, kernel, *args, **kwargs):
        made.add(kernel)
        return append(self, kernel, *args, **kwargs)

    monkeypatch.setattr(Tape, "_append", recording)
    pairs, vocab, prepared = tiny_corpus(n=2)
    model = tiny_summarizer(vocab.size)
    summarizer.train_batch(model, prepared, RunConfig(), use_coverage=True)
    summarizer.decode(model, pairs[0].article, vocab, max_decode_len=6)
    classifier.train_classifier(
        ClassifierParams(vocab.size, emb_dim=4, hidden_dim=6, seed=1),
        [LabeledExample([5, 6, 7], 0), LabeledExample([8, 9], 1)], None,
        ClassifierTrainConfig(batch_size=2, epochs=1))
    assert [k.value for k in Kernel if k is not Kernel.LEAF and k not in made] == []


def test_every_parameter_is_read_by_production_code(monkeypatch):
    # A part of a parameter no forward reads keeps a zero grad: it is drawn,
    # trained and saved for nothing.  Coverage-on training and a classifier
    # epoch give each row of every weight, and each entry of every one-row
    # parameter, a non-zero grad.  The embedding tables, whose grads hold
    # only the rows a batch gathers, are left out.
    read = {}

    def recording(params, lr):
        for p in params:
            if not p.row_sparse:
                hit = np.zeros(p.shape, bool) if p._grad is None else p._grad != 0
                read[p.name] = read.get(p.name, False) | (hit if p.shape[0] == 1
                                                          else hit.any(axis=1))
        return adagrad_step(params, lr)

    monkeypatch.setattr("b3sum.tape.adagrad_step", recording)
    _, vocab, prepared = tiny_corpus(n=2)
    model = tiny_summarizer(vocab.size)
    summarizer.train_batch(model, prepared, RunConfig(), use_coverage=True)
    cls = ClassifierParams(vocab.size, emb_dim=4, hidden_dim=6, seed=1)
    classifier.train_classifier(
        cls, [LabeledExample([5, 6, 7], 0), LabeledExample([8, 9], 1)], None,
        ClassifierTrainConfig(batch_size=2, epochs=1))
    params = [p for p in model.params() + cls.params() if not p.row_sparse]
    assert sorted(read) == sorted(p.name for p in params)
    unread = [f"{p.name}[0, {j}]" if p.shape[0] == 1 else f"{p.name}[{j}]"
              for p in params for j in np.flatnonzero(~read[p.name].reshape(-1))]
    assert unread == []


class TestRowSparseAdjoints:
    def test_gather_only_leaf_keeps_its_distinct_rows(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((50, 4))
        t = OracleTape()
        w = t.leaf(table, needs_grad=True)
        first, second = [7, 3, 7, 41], [3, 0, 3, 3]
        loss = t.add(t.reduce_sum(t.tanh(t.gather_rows(w, first))),
                     t.reduce_sum(t.mul(t.gather_rows(w, second), t.gather_rows(w, second))))
        t.backward(loss)
        adjoint = t.nodes[w].grad
        assert isinstance(adjoint, RowBlock)
        assert adjoint.rows.tolist() == [0, 3, 7, 41]
        # the dense rule added the second gather's rows, then the first's
        want = np.zeros_like(t.value(w))
        np.add.at(want, second, 2 * t.value(w)[second])
        np.add.at(want, first, 1 - np.tanh(t.value(w)[first]) ** 2)
        np.testing.assert_allclose(t.grad(w), want, rtol=1e-6)

    @pytest.mark.parametrize("dense_reader_first", [False, True])
    def test_a_table_read_by_another_kernel_stays_dense(self, dense_reader_first):
        p = Parameter("table", np.arange(12.0).reshape(6, 2) / 10)
        t = OracleTape()
        w = t.param(p)
        terms = [t.reduce_sum(t.gather_rows(w, [1, 4, 1])),
                 t.reduce_sum(t.matmul(t.leaf([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]), w))]
        if dense_reader_first:
            terms.reverse()
        t.backward(t.add(*terms))
        assert isinstance(t.nodes[w].grad, np.ndarray)
        want = np.repeat([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]], 2, axis=1)
        want[1] += 2.0
        want[4] += 1.0
        np.testing.assert_array_equal(p.grad, want)

    def test_parameter_and_tape_return_the_dense_adjoint(self):
        p = Parameter("table", np.ones((5, 3)))
        t = OracleTape()
        w = t.param(p)
        t.backward(t.reduce_sum(t.gather_rows(w, [4, 2, 4])))
        assert isinstance(p._grad, RowBlock)
        want = np.zeros((5, 3), dtype=np.float32)
        want[2], want[4] = 1.0, 2.0
        np.testing.assert_array_equal(t.grad(w), want)
        assert isinstance(p.grad, np.ndarray) and p.grad.dtype == np.float32
        np.testing.assert_array_equal(p.grad, want)

    @pytest.mark.parametrize("shape, n_rows", [((3000, 50), 40), ((2000, 128), 460),
                                               ((7, 3), 7), ((5000, 1), 3)],
                             ids=["straddling", "paper-like", "all-rows", "column"])
    def test_norm_clip_and_adagrad_match_the_dense_path(self, shape, n_rows):
        # Magnitudes spread over e^-4..e^4, so a change in the float64 sum's
        # order shows in the norm; rows sit anywhere, across chunk bounds too.
        rng = np.random.default_rng(n_rows)
        rows = np.sort(rng.choice(shape[0], n_rows, replace=False))
        block = (rng.standard_normal((n_rows, shape[1]))
                 * np.exp(rng.uniform(-4, 4, (n_rows, shape[1])))).astype(np.float32)
        other = rng.standard_normal((2, 3)).astype(np.float32)
        value = rng.standard_normal(shape).astype(np.float32)
        acc = rng.uniform(0.1, 5.0, shape).astype(np.float32)
        runs = []
        for sparse in (True, False):
            table, bias = Parameter("table", value.copy()), Parameter("bias", np.zeros((2, 3)))
            table.adagrad_acc[...] = acc
            grad = RowBlock(rows, block.copy(), shape)
            table._grad = grad if sparse else grad.dense()
            bias._grad = other.copy()
            norm = global_grad_norm([table, bias])
            factor = clip_global_norm([table, bias], 1.0)
            adagrad_step([table, bias], 0.15)
            runs.append((norm, factor, table.value.tobytes(), table.adagrad_acc.tobytes(),
                         bias.value.tobytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] < 1.0

    def test_non_finite_row_is_named(self):
        p = Parameter("emb", np.zeros((4, 2)))
        p._grad = RowBlock(np.array([2]), np.array([[1.0, np.inf]], dtype=np.float32), (4, 2))
        with pytest.raises(NonFiniteError, match="'emb'"):
            global_grad_norm([p])


class TestRowState:
    """A ``row_sparse`` table's Adagrad row state against the dense
    accumulator it replaces (``oracles.dense_acc_row_step``)."""

    SHAPE = (20, 4)
    # repeated, overlapping and new rows; the last step grows nothing
    STEPS = ([3, 7, 10], [3, 5, 7], [0, 10, 19], [5, 7])

    @staticmethod
    def _table(value):
        table = Parameter("table", value)
        table.row_sparse = True
        return table

    @pytest.mark.parametrize("clip_norm", [None, 0.5], ids=["unclipped", "clipped"])
    def test_steps_match_the_dense_accumulator(self, clip_norm):
        rng = np.random.default_rng(11)
        start = rng.standard_normal(self.SHAPE).astype(np.float32)
        table, bias = self._table(start), Parameter("bias", np.zeros((1, 3)))
        want_value, want_acc = start.copy(), np.full(self.SHAPE, ADAGRAD_INIT_ACC, np.float32)
        seen = set()
        for rows in self.STEPS:
            block = rng.standard_normal((len(rows), self.SHAPE[1])).astype(np.float32)
            other = rng.standard_normal((1, 3)).astype(np.float32)
            table._grad = RowBlock(np.array(rows), block.copy(), self.SHAPE)
            bias._grad = other.copy()
            factor = 1.0
            if clip_norm is not None:
                factor = clip_global_norm([table, bias], clip_norm)
                want_factor, _ = reference_clip_global_norm(
                    [RowBlock(np.array(rows), block, self.SHAPE).dense(), other], clip_norm)
                assert factor == want_factor < 1.0
            adagrad_step([table, bias], 0.15)
            grad = RowBlock(np.array(rows), block * np.float32(factor) if clip_norm else block,
                            self.SHAPE)
            dense_acc_row_step(want_value, want_acc, grad, 0.15)
            seen.update(rows)
            assert isinstance(table._acc, RowBlock)
            assert table._acc.rows.tolist() == sorted(seen)
            assert table._acc.block.tobytes() == want_acc[sorted(seen)].tobytes()
            assert table.value.tobytes() == want_value.tobytes()
        assert table.adagrad_acc.tobytes() == want_acc.tobytes()
        assert isinstance(table._acc, np.ndarray)

    def test_a_table_holding_most_rows_goes_dense_with_the_same_bytes(self):
        rng = np.random.default_rng(13)
        start = rng.standard_normal(self.SHAPE).astype(np.float32)
        table = self._table(start.copy())
        want_value, want_acc = start.copy(), np.full(self.SHAPE, ADAGRAD_INIT_ACC, np.float32)
        # 6, then 10 of the 20 rows (half: still by row), then 11 (dense)
        steps = (([1, 4, 6, 9, 12, 15], RowBlock), ([0, 2, 4, 8, 9, 19], RowBlock),
                 ([3, 19], np.ndarray), ([5, 7, 19], np.ndarray))
        for rows, kind in steps:
            grad = RowBlock(np.array(rows),
                            rng.standard_normal((len(rows), self.SHAPE[1])).astype(np.float32),
                            self.SHAPE)
            table._grad = RowBlock(grad.rows, grad.block.copy(), self.SHAPE)
            adagrad_step([table], 0.15)
            dense_acc_row_step(want_value, want_acc, grad, 0.15)
            assert isinstance(table._acc, kind)
            assert table.value.tobytes() == want_value.tobytes()
        assert table._acc.tobytes() == want_acc.tobytes()

    def test_a_table_a_matmul_also_reads_fills_out_with_the_same_bytes(self, monkeypatch):
        use_oracle_tape(monkeypatch)
        rng = np.random.default_rng(12)
        start = rng.standard_normal(self.SHAPE).astype(np.float32)
        x = rng.standard_normal((2, self.SHAPE[1])).astype(np.float32)
        sparse, dense = self._table(start.copy()), Parameter("table", start.copy())

        def gathers(p, rows):
            return lambda t: t.reduce_sum(t.tanh(t.gather_rows(t.param(p), rows)))

        def gathers_and_matmul(p, rows):
            def build(t):
                w = t.param(p)
                return t.add(t.reduce_sum(t.tanh(t.gather_rows(w, rows))),
                             t.reduce_sum(t.tanh(t.matmul(t.leaf(x), w, transpose_b=True))))
            return build

        for make, rows in ((gathers, [2, 9, 2]), (gathers_and_matmul, [9, 4]),
                           (gathers, [4, 17])):
            for p in (sparse, dense):
                optimizer_step(make(p, rows), [p], lr=0.1, clip_norm=1.0)
            assert sparse.value.tobytes() == dense.value.tobytes()
        assert isinstance(sparse._acc, np.ndarray)  # the matmul's dense grad filled it out
        assert sparse._acc.tobytes() == dense._acc.tobytes()

    @pytest.mark.parametrize("where", ["loss", "gradient", "build"])
    def test_a_raising_step_leaves_the_row_state_as_it_was(self, where, monkeypatch):
        use_oracle_tape(monkeypatch)
        table, bias = self._table(np.ones(self.SHAPE)), Parameter("bias", [[1.0]])

        def step(rows, fail):
            def build(t):
                loss = t.add(t.reduce_sum(t.gather_rows(t.param(table), rows)),
                             t.reduce_sum(t.param(bias)))
                if fail and where == "build":
                    raise RuntimeError("build failed")
                return t.scale(loss, np.nan) if fail and where == "loss" else loss

            if fail and where == "gradient":
                bias.grad[0, 0] = np.inf  # backward adds into it
            with pytest.raises(RuntimeError if where == "build" else NonFiniteError):
                optimizer_step(build, [table, bias], lr=0.1, clip_norm=1.0)

        step([1, 4], fail=True)
        assert table._acc is None and table._grad is None
        optimizer_step(lambda t: t.reduce_sum(t.gather_rows(t.param(table), [1, 4])), [table],
                       lr=0.1, clip_norm=1.0)
        state = (table._acc.rows.tobytes(), table._acc.block.tobytes(), table.value.tobytes())
        step([2, 4], fail=True)
        assert (table._acc.rows.tobytes(), table._acc.block.tobytes(),
                table.value.tobytes()) == state
        assert table._grad is None


class TestFactoredGrad:
    """A large weight that only ``transpose_b`` matmuls read keeps its
    adjoint's factors (``FactoredGrad``), against the dense rule it replaces
    (``oracles.DenseWeightTape``)."""

    @staticmethod
    def _logits_loss(t, w, x, targets):
        """mean -log softmax(tanh(x)·Wᵀ)[targets]: the output projection's shape."""
        logits = t.matmul(t.tanh(t.leaf(x)), w, transpose_b=True)
        return t.reduce_mean(t.neg_log_pick(t.softmax(logits), targets))

    @pytest.mark.parametrize("rows, width", [(257, 256), (20011, 200), (40, 7)],
                             ids=["1-row-tail", "11-row-tail", "short"])
    def test_every_chunk_has_the_dense_products_bytes(self, rows, width):
        # Chunks start anywhere a pairwise-sum leaf may (multiples of 8
        # elements), so their rows straddle the 16-row grid; the last cell of
        # a 257-row grid holds one row, which alone would round differently.
        rng = np.random.default_rng(rows)
        pairs = [(rng.standard_normal((t, rows)).astype(np.float32),
                  rng.standard_normal((t, width)).astype(np.float32)) for t in (60, 7)]
        grad = FactoredGrad(*pairs[0])
        grad.pairs.append(pairs[1])
        grad.scales = (np.float32(0.37),)
        want = pairs[0][0].T @ pairs[0][1]
        want += pairs[1][0].T @ pairs[1][1]
        want *= np.float32(0.37)
        assert grad.dense().tobytes() == want.tobytes()
        flat = want.reshape(-1)
        starts = {0, 8, flat.size - 8, 1000 * 8, flat.size // 2 - flat.size // 2 % 8}
        for start in sorted(s for s in starts if s < flat.size):
            n = min(SUM_CHUNK, flat.size - start)
            part = flat[start : start + n]
            chunk = grad.flat_chunk(start, n)
            assert chunk.dtype == np.float64
            assert chunk.tobytes() == part.astype(np.float64).tobytes()
            assert grad.flat_chunk(start, n, np.float32).tobytes() == part.tobytes()

    @pytest.mark.parametrize("clip_norm", [None, 1e-3, 1e9],
                             ids=["unclipped", "clipped", "factor-1"])
    def test_steps_match_the_dense_rule(self, clip_norm, monkeypatch):
        rng = np.random.default_rng(21)
        start = (rng.standard_normal((2048, 40)) * 0.1).astype(np.float32)
        x = rng.standard_normal((6, 40)).astype(np.float32)
        targets = rng.integers(0, 2048, 6)
        runs = []
        for tape_cls in (Tape, oracles.DenseWeightTape):
            p, seen = Parameter("V_out", start.copy()), []

            def build(t):
                loss = self._logits_loss(t, t.param(p), x, targets)
                seen.append(t)
                return loss

            with monkeypatch.context() as m:
                use_oracle_tape(m, tape_cls)
                losses, kinds = [], []
                for _ in range(3):
                    losses.append(optimizer_step(build, [p], lr=0.1, clip_norm=clip_norm))
                    kinds.append(type(seen[-1].nodes[seen[-1]._param_nodes[id(p)][0]].grad))
            runs.append((losses, p.value.tobytes(), p.adagrad_acc.tobytes(), kinds))
        assert runs[0][:3] == runs[1][:3]
        assert runs[0][3] == [FactoredGrad] * 3 and runs[1][3] == [np.ndarray] * 3

    def test_norm_clip_and_grad_read_the_dense_adjoint(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((5, 32)).astype(np.float32)
        targets = rng.integers(0, 4096, 5)
        start = rng.standard_normal((4096, 32)).astype(np.float32)
        runs = []
        for tape_cls in (Tape, oracles.DenseWeightTape):
            p = Parameter("V_out", start.copy())
            t = tape_cls()
            w = t.param(p)
            t.backward(self._logits_loss(t, w, x, targets))
            kind, dense = type(p._grad), t.grad(w).tobytes()
            norm = global_grad_norm([p])
            factor = clip_global_norm([p], norm / 3)
            runs.append((norm, factor, dense, p.grad.tobytes(), kind, type(p._grad)))
        assert runs[0][:4] == runs[1][:4]
        assert runs[0][1] < 1.0
        # reading grad filled the factors out
        assert runs[0][4:] == (FactoredGrad, np.ndarray) and runs[1][4:] == (np.ndarray,) * 2

    @pytest.mark.parametrize("gather_after_matmul", [False, True])
    def test_a_table_gathered_and_read_transposed_keeps_the_dense_rules_bytes(
            self, gather_after_matmul, monkeypatch):
        # Tied embeddings: the gathers' rows and the matmul's factors land on
        # one leaf, and it is filled out dense whichever rule runs first.
        rng = np.random.default_rng(23)
        start = (rng.standard_normal((2048, 32)) * 0.1).astype(np.float32)
        ids, targets = [5, 2047, 5, 16], rng.integers(0, 2048, 4)
        runs = []
        for tape_cls in (Tape, oracles.DenseWeightTape):
            table = Parameter("emb", start.copy())

            def build(t):
                w = t.param(table)
                logits = t.matmul(t.tanh(t.gather_rows(w, ids)), w, transpose_b=True)
                nll = t.reduce_mean(t.neg_log_pick(t.softmax(logits), targets))
                if not gather_after_matmul:
                    return nll
                return t.add(nll, t.reduce_mean(t.tanh(t.gather_rows(w, ids[::-1]))))

            with monkeypatch.context() as m:
                use_oracle_tape(m, tape_cls)
                losses = [optimizer_step(build, [table], lr=0.1, clip_norm=0.5)
                          for _ in range(3)]
            runs.append((losses, table.value.tobytes(), table.adagrad_acc.tobytes()))
        assert runs[0] == runs[1]

    def test_float64_adjoint_stays_factored_and_matches_finite_differences(self):
        # The float64 tape keeps the weight's factors through backward; the
        # dense adjoint read back from the tape and the Parameter agrees with
        # central differences at entries across the 16-row grid and its
        # one-row last cell.
        rng = np.random.default_rng(24)
        p = Parameter("V_out", rng.standard_normal((1025, 64)) * 0.5)
        x = rng.standard_normal((3, 64))
        targets = [0, 1024, 517]

        def loss_of():
            t = Tape(dtype=np.float64)
            w = t.param(p)
            return t, w, self._logits_loss(t, w, x, targets)

        t, w, loss = loss_of()
        t.backward(loss)
        assert isinstance(t.nodes[w].grad, FactoredGrad)
        analytic = t.grad(w)
        assert analytic.dtype == np.float64
        np.testing.assert_array_equal(p.grad, analytic.astype(np.float32))
        flat = p.value.reshape(-1)
        for row, col in ((0, 0), (15, 63), (16, 1), (517, 30), (1023, 5), (1024, 63)):
            i, h, orig = row * 64 + col, 1e-3, flat[row * 64 + col]
            values = []
            for step in (h, -h):
                flat[i] = orig + step
                t, _, loss = loss_of()
                # float32 rounds the step
                values.append((float(t.value(loss)[0, 0]), float(flat[i])))
            flat[i] = orig
            (f_plus, x_plus), (f_minus, x_minus) = values
            numeric = (f_plus - f_minus) / (x_plus - x_minus)
            a = float(analytic[row, col])
            assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-8) <= 1e-3, (row, col)

    def test_backward_clip_and_adagrad_never_hold_a_weight_sized_block(self):
        # At paper shape (T 60, vocab 20,000, hidden 256) the dense adjoint
        # is a 19.5 MiB float32 block; the factors are a (T x V) adjoint and
        # a (T x H) input, and the norm and Adagrad form one chunk at a time.
        rows, vocab, hidden = 60, 20000, 256
        rng = np.random.default_rng(25)
        p = Parameter("V_out", (rng.standard_normal((vocab, hidden)) * 0.05).astype(np.float32))
        p.adagrad_acc  # created before tracing: only the step's arrays count
        t = Tape()
        loss = self._logits_loss(t, t.param(p), rng.standard_normal((rows, hidden)),
                                 rng.integers(0, vocab, rows))
        with traced_peak() as traced:
            t.backward(loss)
            assert isinstance(p._grad, FactoredGrad)
            clip_global_norm([p], 1e-3)
            adagrad_step([p], lr=0.1)
        assert traced.peak < vocab * hidden * 4


class TestRecordFreeTape:
    @staticmethod
    def _graph(t, w, x):
        """A few kernels on two inputs; returns every node's value."""
        h = t.tanh(t.matmul(t.param(x), t.param(w), transpose_b=True))
        p = t.softmax(t.concat([h, t.scale(h, -2.0)], axis=0))
        return [t.value(n) for n in (h, p, t.neg_log_pick(p, [0, 1, 2, 0]))]

    def test_values_match_a_recording_tape(self):
        rng = np.random.default_rng(3)
        w = Parameter("w", rng.uniform(-1, 1, (3, 4)))
        x = Parameter("x", rng.uniform(-1, 1, (2, 4)))
        recorded = [v.tobytes() for v in self._graph(Tape(), w, x)]
        assert [v.tobytes() for v in self._graph(Tape(record=False), w, x)] == recorded

    def test_a_handle_is_its_value_and_nothing_is_kept(self):
        t = Tape(record=False)
        p = Parameter("p", [[1.0, -2.0]])
        x = t.param(p)
        assert x is p.value and t.value(x) is x
        y = t.tanh(x)
        assert isinstance(y, np.ndarray) and t.value(y) is y
        gone = weakref.ref(t.sigmoid(y))  # nothing refers to it once made
        assert gone() is None
        assert len(t) == len(t.nodes) == 3  # the leaf, tanh and sigmoid

    def test_backward_raises(self):
        t = OracleTape(record=False)
        loss = t.reduce_sum(t.leaf([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="records nothing"):
            t.backward(loss)


class TestFiniteDiffCheck:
    def test_square_function(self):
        p = Parameter("x", [[3.0]])

        def build(dtype):
            t = OracleTape(dtype=dtype)
            n = t.param(p)
            return t, t.reduce_sum(t.mul(n, n))

        report = finite_diff_check(build, [p], h=1e-4)
        assert report.ok
        assert report.max_rel_err < 1e-8

    def test_constant_function_zero_grads(self):
        p = Parameter("x", [[2.0]])

        def build(dtype):
            t = Tape(dtype=dtype)
            t.param(p)
            return t, t.leaf([[5.0]])

        report = finite_diff_check(build, [p])
        assert report.ok
        assert report.max_rel_err == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered in log")
    def test_non_finite_reported_with_parameter_name(self):
        p = Parameter("bad", [[0.0005]])

        def build(dtype):
            t = OracleTape(dtype=dtype)
            return t, t.reduce_sum(t.log(t.param(p)))

        report = finite_diff_check(build, [p], h=1e-3)
        assert not report.ok
        assert any("bad" in f for f in report.failures)

    def test_grads_are_left_as_the_check_found_them(self):
        # The check's own backward must not add into a grad a training step
        # then clips and applies.
        w = Parameter("w", [[0.5, -0.3], [0.1, 0.8]])
        b = Parameter("b", [[0.2, -0.1]])

        def build(dtype):
            t = Tape(dtype=dtype)
            h = t.tanh(t.add(t.matmul(t.leaf([[1.0, 2.0]]), t.param(w)), t.param(b)))
            return t, t.neg_log_pick(t.softmax(h), 0)

        def backward():
            t, loss = build(np.float32)
            t.backward(loss)
            return [p.grad.tobytes() for p in (w, b)]

        once = backward()
        assert finite_diff_check(build, [w, b]).ok
        assert [p.grad.tobytes() for p in (w, b)] == once
        zero_grads([w, b])
        assert finite_diff_check(build, [w, b]).ok
        assert w._grad is None and b._grad is None
        assert backward() == once


class TestClipGlobalNorm:
    def test_clips_to_max_norm(self):
        p = Parameter("g", [[0.0, 0.0]])
        p.grad[...] = [[3.0, 4.0]]
        factor = clip_global_norm([p], 2.0)
        assert factor == pytest.approx(0.4)
        np.testing.assert_allclose(p.grad, [[1.2, 1.6]], rtol=1e-6)

    def test_small_grads_untouched(self):
        p = Parameter("g", [[0.0]])
        p.grad[...] = [[0.1]]
        assert clip_global_norm([p], 2.0) == 1.0
        np.testing.assert_allclose(p.grad, [[0.1]])

    def test_zero_grads(self):
        p = Parameter("g", [[0.0, 0.0]])
        assert clip_global_norm([p], 2.0) == 1.0

    def test_rejects_nonpositive_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm([Parameter("g", [[0.0]])], 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
        st.floats(min_value=0.5, max_value=4.0),
    )
    def test_idempotent(self, grads, max_norm):
        p = Parameter("g", [[0.0] * len(grads)])
        p.grad[...] = np.array([grads], dtype=np.float32)
        clip_global_norm([p], max_norm)
        once = p.grad.copy()
        clip_global_norm([p], max_norm)
        np.testing.assert_allclose(p.grad, once, rtol=2e-6, atol=1e-7)


class TestAdagrad:
    def test_hand_derived_update(self):
        p = Parameter("w", [[0.0]])
        p.grad[...] = 3.0
        adagrad_step([p], lr=0.1)
        assert p.adagrad_acc[0, 0] == pytest.approx(9.1, rel=1e-6)
        assert p.value[0, 0] == pytest.approx(-0.0994490, abs=1e-6)
        np.testing.assert_array_equal(p.grad, [[0.0]])

    def test_zero_grad_no_change(self):
        p = Parameter("w", [[1.5]])
        adagrad_step([p], lr=0.1)
        assert p.value[0, 0] == pytest.approx(1.5)
        assert p.adagrad_acc[0, 0] == pytest.approx(0.1)

    def test_update_magnitude_nonincreasing_under_constant_grads(self):
        p = Parameter("w", [[0.0]])
        deltas = []
        for _ in range(5):
            before = float(p.value[0, 0])
            p.grad[...] = 2.0
            adagrad_step([p], lr=0.1)
            deltas.append(abs(float(p.value[0, 0]) - before))
        assert all(d1 >= d2 for d1, d2 in zip(deltas, deltas[1:]))

    def test_zero_grads_helper(self):
        p = Parameter("w", [[1.0]])
        p.grad[...] = 5.0
        zero_grads([p])
        np.testing.assert_array_equal(p.grad, [[0.0]])


class TestOptimizerStep:
    @pytest.fixture(autouse=True)
    def _oracle_tape(self, monkeypatch):
        use_oracle_tape(monkeypatch)  # for the loss's reduce_sum

    @staticmethod
    def _linear_loss(params, coefs, built=None):
        """A builder of sum(coef * param) over the pairs of 1-row params, each
        term param·coefᵀ: each param's grad is its coef.  Each (tape, loss) it
        builds is appended to ``built``."""
        def build(t):
            terms = [t.matmul(t.param(p), t.leaf(c), transpose_b=True)
                     for p, c in zip(params, coefs)]
            loss = t.reduce_sum(t.concat(terms, axis=1))
            if built is not None:
                built.append((t, loss))
            return loss

        return build

    def test_non_finite_loss_raises_before_any_grad_exists(self):
        w = Parameter("w", [[1.0, 2.0]])
        built = []
        with pytest.raises(NonFiniteError, match=r"^non-finite loss nan$"):
            optimizer_step(self._linear_loss([w], [[[np.nan, 1.0]]], built), [w],
                           lr=0.1, clip_norm=1.0)
        assert w._grad is None and w._acc is None
        assert all(node.grad is None for node in built[0][0].nodes)  # backward never ran
        np.testing.assert_array_equal(w.value, [[1.0, 2.0]])

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_non_finite_grad_releases_every_grad_and_names_the_parameter(self, clip_norm):
        ok, bad = Parameter("ok", [[1.0]]), Parameter("bad", [[1.0, 2.0]])
        bad.grad[0, 1] = np.inf  # backward adds into it
        build = self._linear_loss([ok, bad], [[[3.0]], [[1.0, 1.0]]])
        with pytest.raises(NonFiniteError, match=r"^non-finite gradient in parameter 'bad'$"):
            optimizer_step(build, [ok, bad], lr=0.1, clip_norm=clip_norm)
        assert all(p._grad is None and p._acc is None for p in (ok, bad))
        np.testing.assert_array_equal(ok.value, [[1.0]])
        np.testing.assert_array_equal(bad.value, [[1.0, 2.0]])

    @pytest.mark.parametrize("where", ["loss", "gradient", "build"])
    def test_a_raising_step_drops_only_the_accumulators_it_made(self, where):
        trained, fresh = Parameter("trained", [[1.0, 2.0]]), Parameter("fresh", [[3.0]])
        optimizer_step(self._linear_loss([trained], [[[1.0, -2.0]]]), [trained], lr=0.1)
        acc = trained._acc.tobytes()
        assert acc != np.full((1, 2), ADAGRAD_INIT_ACC, np.float32).tobytes()
        values = [trained.value.tobytes(), fresh.value.tobytes()]
        build = self._linear_loss(
            [trained, fresh], [[[1.0, 1.0]], [[np.nan if where == "loss" else 2.0]]])
        if where == "gradient":
            fresh.grad[0, 0] = np.inf  # backward adds into it
        elif where == "build":
            def build(t, _inner=build):
                _inner(t)
                raise RuntimeError("build failed")
        with pytest.raises(RuntimeError if where == "build" else NonFiniteError):
            optimizer_step(build, [trained, fresh], lr=0.1, clip_norm=1.0)
        assert trained._acc.tobytes() == acc and fresh._acc is None
        assert [trained.value.tobytes(), fresh.value.tobytes()] == values
        assert trained._grad is None and fresh._grad is None

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_grads_are_unscaled_without_clip_norm_and_clipped_with_it(self, clip_norm):
        start = np.array([[0.5, -0.25]], dtype=np.float32)
        grad = np.array([[30.0, 40.0]], dtype=np.float32)  # norm 50
        w = Parameter("w", start.copy())
        built = []
        got = optimizer_step(self._linear_loss([w], [grad], built), [w], lr=0.1,
                             clip_norm=clip_norm)
        t, loss = built[0]
        assert got == float(t.value(loss)[0, 0])
        if clip_norm is not None:
            _, (grad,) = reference_clip_global_norm([grad], clip_norm)
        want_value, want_acc = reference_adagrad_step(
            start, grad, np.full_like(start, 0.1), 0.1)
        assert w.value.tobytes() == want_value.tobytes()
        assert w.adagrad_acc.tobytes() == want_acc.tobytes()
        assert w._grad is None


class TestBatchOrder:
    def test_one_permutation_per_pass_sliced_in_order(self):
        got = [b.tolist() for b in itertools.islice(batch_order(np.random.default_rng(5), 7, 3), 6)]
        rng = np.random.default_rng(5)
        want = []
        for _ in range(2):
            order = rng.permutation(7).tolist()
            want += [order[0:3], order[3:6], order[6:7]]
        assert got == want

    def test_a_pass_is_drawn_when_its_first_batch_is_taken(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        batches = batch_order(rng, 6, 3)
        assert rng.bit_generator.state == ref.bit_generator.state
        list(itertools.islice(batches, 2))
        ref.permutation(6)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n, batch_size", [(0, 2), (3, 0), (3, -1)])
    def test_rejects_no_examples_or_a_batch_size_below_one(self, n, batch_size):
        with pytest.raises(ValueError, match="batch_order"):
            next(batch_order(np.random.default_rng(0), n, batch_size))


class TestTrainSteps:
    def test_steps_run_on_batch_order_and_return_their_losses_in_order(self):
        calls = []

        def step(k, idx):
            calls.append((k, idx.tolist()))
            return 10.0 * k

        losses = train_steps(step, 7, 3, seed=5, steps=5, what="x")
        want = itertools.islice(batch_order(np.random.default_rng(5), 7, 3), 5)
        assert calls == [(k, idx.tolist()) for k, idx in enumerate(want)]
        assert losses == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_a_non_finite_step_is_named_and_no_later_step_runs(self):
        ran = []

        def step(k, idx):
            ran.append(k)
            if k == 2:
                raise NonFiniteError("non-finite loss nan")
            return 1.0

        with pytest.raises(NonFiniteError, match=r"^x step 2: non-finite loss nan$"):
            train_steps(step, 4, 1, seed=0, steps=6, what="x")
        assert ran == [0, 1, 2]


class TestParameterState:
    def test_float32_leaf_borrows_the_value_and_float64_copies(self):
        p = Parameter("w", [[1.0, 2.0], [3.0, 4.0]])
        t32, t64 = Tape(), Tape(dtype=np.float64)
        assert np.shares_memory(t32.value(t32.param(p)), p.value)
        assert not np.shares_memory(t64.value(t64.param(p)), p.value)

    def test_optimizer_state_is_created_on_first_use(self):
        p = Parameter("w", [[1.0, 2.0]])
        assert p._grad is None and p._acc is None
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0]])
        np.testing.assert_array_equal(p.adagrad_acc, np.full((1, 2), ADAGRAD_INIT_ACC, np.float32))
        p.zero_grad()
        assert p._grad is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_rejected_by_name(self, bad):
        big = np.full((300, 300), np.finfo(np.float32).max, dtype=np.float32)
        Parameter("big", big)  # accepted: finite, though its float32 sum is not
        for value in (big, -big):
            value = value.copy()
            value[7, 9] = bad
            with pytest.raises(ValueError, match="parameter 'w' has non-finite values"):
                Parameter("w", value)
        mixed = np.zeros((2, 2), dtype=np.float32)
        mixed[0] = [np.inf, -np.inf]
        with pytest.raises(ValueError, match="'w' has non-finite"):
            Parameter("w", mixed)

    def test_value_is_the_handed_float32_array(self):
        handed = np.ones((2, 3), dtype=np.float32)
        assert Parameter("w", handed).value is handed
        for other in (handed.astype(np.float64), np.ones((3, 2), np.float32).T, [[1.0, 1.0]]):
            value = Parameter("w", other).value
            assert value.dtype == np.float32 and value.flags.c_contiguous
            assert not np.shares_memory(value, other)

    def test_backward_moves_a_float32_adjoint_and_adds_the_rest(self):
        p = Parameter("w", [[2.0, -1.0]])
        t = OracleTape()
        w = t.param(p)
        t.backward(t.reduce_sum(t.mul(w, w)))
        assert p.grad is t.grad(w)
        np.testing.assert_array_equal(p.grad, [[4.0, -2.0]])
        t64 = OracleTape(dtype=np.float64)
        w64 = t64.param(p)
        t64.backward(t64.reduce_sum(w64))
        assert p.grad.dtype == np.float32
        np.testing.assert_array_equal(p.grad, [[5.0, -1.0]])
        np.testing.assert_array_equal(t.grad(w), [[5.0, -1.0]])  # still the moved array

    def test_non_finite_grad_names_the_parameter(self):
        ok, bad = Parameter("ok", [[1.0]]), Parameter("bad", [[1.0, 2.0]])
        ok.grad[...] = 3.0
        bad.grad[0, 1] = np.inf
        with pytest.raises(NonFiniteError, match="non-finite gradient in parameter 'bad'"):
            clip_global_norm([ok, bad], 1.0)

    def test_clip_and_adagrad_peak_below_one_float64_grad(self):
        # The accumulator Adagrad creates on first use is the largest new
        # array; the norm's float64 squares and Adagrad's temporary are
        # made one chunk at a time.
        n = 1 << 20
        p = Parameter("big", np.zeros((1, n), dtype=np.float32))
        p.grad[...] = 1.0  # norm 1024, so the clip scales every element
        with traced_peak() as traced:
            clip_global_norm([p], 2.0)
            adagrad_step([p], lr=0.1)
        assert traced.peak <= 8 * n + 64 * 1024

    def test_clip_norm_alone_stays_within_one_mebibyte(self):
        # The float64 squares are made one chunk of at most SUM_CHUNK
        # elements at a time, so no grad-sized temporary is left.
        p = Parameter("big", np.zeros((1, 1 << 20), dtype=np.float32))
        p.grad[...] = 1.0
        with traced_peak() as traced:
            clip_global_norm([p], 2.0)
        assert traced.peak <= 1 << 20

    def test_adagrad_alone_stays_within_one_mebibyte(self):
        p = Parameter("big", np.zeros((1, 1 << 20), dtype=np.float32))
        p.adagrad_acc  # created before tracing: only the step's temporaries count
        p.grad[...] = 1.0
        with traced_peak() as traced:
            adagrad_step([p], lr=0.1)
        assert traced.peak <= 1 << 20


@pytest.mark.parametrize("shape, layout", [
    ((1, SUM_CHUNK + 1), "C"), ((3, SUM_CHUNK + 7), "C"), ((300, 700), "F"),
    ((700, 300), "transposed"),
], ids=["chunk+1", "3rows-odd", "F-ordered", "transposed"])
def test_chunked_adagrad_matches_reference_bytes(shape, layout):
    rng = np.random.default_rng(12)
    grad = (rng.standard_normal(shape) * np.exp(rng.uniform(-4, 4, shape))).astype(np.float32)
    if layout == "F":
        grad = np.asfortranarray(grad)
    elif layout == "transposed":
        grad = grad.T
    value = rng.standard_normal(grad.shape).astype(np.float32)
    acc = rng.uniform(0.1, 5.0, grad.shape).astype(np.float32)
    p = Parameter("w", value.copy())
    p.adagrad_acc[...] = acc
    p._grad = grad.copy(order="K")
    adagrad_step([p], 0.15)
    want_value, want_acc = reference_adagrad_step(value, grad, acc, 0.15)
    assert p.value.tobytes() == want_value.tobytes()
    assert p.adagrad_acc.tobytes() == want_acc.tobytes()


@pytest.mark.parametrize("shape, layout", [
    ((1, SUM_CHUNK - 1), "C"), ((1, SUM_CHUNK), "C"), ((1, SUM_CHUNK + 1), "C"),
    ((1, 3 * SUM_CHUNK + 5), "C"), ((20000, 256), "C"), ((20000, 256), "F"),
    ((20000, 256), "transposed"),
], ids=["chunk-1", "chunk", "chunk+1", "3chunks+5", "20000x256", "F-ordered", "transposed"])
def test_chunked_clip_norm_matches_reference_bytes(shape, layout):
    # Magnitudes spread over e^-4..e^4, so the float64 sum rounds often and
    # a different summation order shows in the norm.
    rng = np.random.default_rng(11)
    grad = (rng.standard_normal(shape) * np.exp(rng.uniform(-4, 4, shape))).astype(np.float32)
    if layout == "F":
        grad = np.asfortranarray(grad)
    elif layout == "transposed":
        grad = grad.T
    g64 = grad.astype(np.float64)
    # The square root can hide a last-bit difference, so the sum is compared too.
    assert _sum_of_squares(grad) == float((g64 * g64).sum())
    p = Parameter("g", np.zeros((1, 1), dtype=np.float32))
    p._grad = grad.copy(order="K")  # keeps the F order and the transposed layout
    factor = clip_global_norm([p], 1.0)
    want_factor, (want,) = reference_clip_global_norm([grad], 1.0)
    assert factor == want_factor < 1.0
    assert p._grad.tobytes(order="A") == want.tobytes(order="A")


_GRAD_VALUES = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 1e3, width=32),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)


@st.composite
def _grads(draw):
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=3))
    return [draw(hnp.arrays(np.float32, shape, elements=_GRAD_VALUES)) for shape in shapes]


class TestOptimizerMatchesReference:
    """The in-place optimizer against the formulas it replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_grads(), st.floats(1e-3, 10.0))
    def test_clip_global_norm(self, grads, max_norm):
        params = [Parameter(f"p{k}", np.zeros_like(g)) for k, g in enumerate(grads)]
        for p, g in zip(params, grads):
            p.grad[...] = g
        factor = clip_global_norm(params, max_norm)
        want_factor, want = reference_clip_global_norm(grads, max_norm)
        assert factor == want_factor
        for p, w in zip(params, want):
            assert p.grad.tobytes() == w.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_adagrad_step(self, data):
        shape = data.draw(_SHAPES)
        grad = data.draw(hnp.arrays(np.float32, shape, elements=_GRAD_VALUES))
        value = data.draw(hnp.arrays(np.float32, shape, elements=_GRAD_VALUES))
        acc = data.draw(hnp.arrays(np.float32, shape, elements=st.floats(0.0, 1e6, width=32)))
        lr = data.draw(st.floats(1e-4, 1.0))
        p = Parameter("w", value.copy())
        p.adagrad_acc[...] = acc
        p.grad[...] = grad
        with np.errstate(over="ignore", invalid="ignore"):
            adagrad_step([p], lr)
            want_value, want_acc = reference_adagrad_step(value, grad, acc, lr)
        assert p.value.tobytes() == want_value.tobytes()
        assert p.adagrad_acc.tobytes() == want_acc.tobytes()
        assert p._grad is None


def test_grad_check_report_str():
    rep = GradCheckReport(max_rel_err=1e-5, worst_param="w[3]", ok=True)
    assert "w[3]" in str(rep)
