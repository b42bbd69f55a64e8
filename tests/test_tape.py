"""Kernel semantics, backward correctness, optimizer, and the grad checker."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from b3sum.tape import (
    ADAGRAD_INIT_ACC,
    SUM_CHUNK,
    DimensionError,
    GradCheckReport,
    NonFiniteError,
    Parameter,
    Tape,
    _sum_of_squares,
    adagrad_step,
    batch_order,
    clip_global_norm,
    finite_diff_check,
    optimizer_step,
    train_steps,
    zero_grads,
)

from oracles import reference_adagrad_step, reference_clip_global_norm


class TestKernelForward:
    def test_softmax_uniform_logits(self):
        t = Tape()
        out = t.softmax(t.leaf([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(t.value(out), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)

    def test_elementwise_min(self):
        t = Tape()
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
        t = Tape()
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
        t = Tape()
        out = t.transpose(t.leaf([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(t.value(out), [[1, 3], [2, 4]])

    def test_matmul_transposed_second_operand(self):
        t = Tape()
        a, w = t.leaf([[1.0, 2.0]]), t.leaf([[1.0, 0.0], [3.0, -1.0], [0.5, 2.0]])
        np.testing.assert_array_equal(t.value(t.matmul(a, w, transpose_b=True)), [[1, 1, 4.5]])
        with pytest.raises(DimensionError, match="matmul"):
            t.matmul(a, t.leaf(np.ones((3, 3))), transpose_b=True)

    def test_tanh_sum_dim_mismatch_names_kernel(self):
        t = Tape()
        a, b = t.leaf(np.ones((3, 2))), t.leaf(np.ones((1, 2)))
        with pytest.raises(DimensionError, match="tanh-sum: incompatible dims"):
            t.tanh_sum([a, b, t.leaf(np.ones((3, 3)))])

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

    def test_scatter_add_accumulates_repeated_ids(self):
        t = Tape()
        out = t.scatter_add(t.leaf([[0.1, 0.2, 0.3, 0.4]]), [3, 0, 3, 1], 5)
        np.testing.assert_allclose(t.value(out), [[0.2, 0.4, 0.0, 0.4, 0.0]], atol=1e-7)

    def test_scatter_add_rejects_bad_ids(self):
        t = Tape()
        a = t.leaf([[0.5, 0.5]])
        with pytest.raises(IndexError, match="scatter-add: id 4 at position 1"):
            t.scatter_add(a, [0, 4], 4)
        with pytest.raises(DimensionError, match="scatter-add: 3 ids for 2 columns"):
            t.scatter_add(a, [0, 1, 2], 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one_and_positive(logits):
    t = Tape()
    out = t.value(t.softmax(t.leaf([logits])))
    assert abs(out.sum() - 1.0) <= 1e-6
    assert (out > 0).all()


class TestBackward:
    def test_quadratic(self):
        t = Tape()
        x = t.leaf([[1.0, 2.0]], needs_grad=True)
        t.backward(t.reduce_sum(t.mul(x, x)))
        np.testing.assert_allclose(t.grad(x), [[2.0, 4.0]])

    def test_tanh_at_zero(self):
        t = Tape()
        x = t.leaf([[0.0]], needs_grad=True)
        t.backward(t.reduce_sum(t.tanh(x)))
        np.testing.assert_allclose(t.grad(x), [[1.0]])

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.leaf([[1.0, 2.0]], needs_grad=True)
        with pytest.raises(DimensionError, match="scalar"):
            t.backward(t.mul(x, x))

    def test_parameter_grads_accumulate_across_uses(self):
        p = Parameter("w", [[2.0]])
        t = Tape()
        n = t.param(p)
        # w*w + 3*w -> d/dw = 2w + 3 = 7
        loss = t.reduce_sum(t.add(t.mul(n, n), t.scale(n, 3.0)))
        t.backward(loss)
        np.testing.assert_allclose(p.grad, [[7.0]])

    def test_unreachable_parameter_grad_stays_zero(self):
        p, q = Parameter("used", [[1.0]]), Parameter("unused", [[1.0]])
        t = Tape()
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
            t = Tape(dtype=dtype)
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
            t = Tape(dtype=dtype)
            xn, yn = t.param(x), t.param(y)
            side = t.tanh(xn)
            z = t.add(xn, yn)
            return t, t.reduce_sum(t.add(t.mul(z, z), t.mul(side, side)))

        report = finite_diff_check(build, [x, y], h=1e-3, tol=1e-3)
        assert report.ok, report

    def test_only_leaves_keep_grads(self):
        p = Parameter("w", [[0.5, -0.2], [0.1, 0.3], [0.7, 0.4]])
        t = Tape()
        x = t.leaf([[1.0, -1.0]], needs_grad=True)
        w = t.param(p)
        rows = t.gather_rows(w, [2, 0, 2])
        scores = t.tanh(t.matmul(rows, x, transpose_b=True))
        mass = t.scatter_add(t.softmax(t.transpose(scores)), [1, 0, 1], 3)
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


def _attention_scores(fused, dtype, coverage):
    """Two attention-like steps sharing the encoder term and the bias, built
    with ``tanh_sum`` or with the add/add/tanh chain it replaces.  Returns
    the step values and the adjoints of every input leaf, as bytes."""
    rng = np.random.default_rng(7)
    n, d = 6, 5
    t = Tape(dtype)
    enc = t.leaf(rng.uniform(-1, 1, (n, d)), needs_grad=True)
    bias = t.leaf(rng.uniform(-1, 1, (1, d)), needs_grad=True)
    read = t.leaf(rng.uniform(-1, 1, (n, d)))
    inputs, ys, loss = [enc, bias], [], None
    for _ in range(2):
        terms = [enc, t.leaf(rng.uniform(-1, 1, (1, d)), needs_grad=True)]
        if coverage:
            terms.append(t.leaf(rng.uniform(-1, 1, (n, d)), needs_grad=True))
        terms.append(bias)
        inputs += terms[1:-1]
        if fused:
            y = t.tanh_sum(terms)
        else:
            y = terms[0]
            for term in terms[1:]:
                y = t.add(y, term)
            y = t.tanh(y)
        ys.append(y)
        step = t.reduce_sum(t.mul(y, read))
        loss = step if loss is None else t.add(loss, step)
    values = [t.value(y).tobytes() for y in ys]  # backward releases them
    t.backward(loss)
    return values, [t.grad(i).tobytes() for i in inputs]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("coverage", [False, True])
def test_tanh_sum_is_byte_equal_to_the_add_chain(dtype, coverage):
    assert _attention_scores(True, dtype, coverage) == _attention_scores(False, dtype, coverage)


class TestFiniteDiffCheck:
    def test_square_function(self):
        p = Parameter("x", [[3.0]])

        def build(dtype):
            t = Tape(dtype=dtype)
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
            t = Tape(dtype=dtype)
            return t, t.reduce_sum(t.log(t.param(p)))

        report = finite_diff_check(build, [p], h=1e-3)
        assert not report.ok
        assert any("bad" in f for f in report.failures)


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
    @staticmethod
    def _linear_loss(params, coefs):
        """sum(coef * param) over the pairs: each param's grad is its coef."""
        t = Tape()
        terms = [t.reduce_sum(t.mul(t.param(p), t.leaf(c))) for p, c in zip(params, coefs)]
        return t, t.reduce_sum(t.concat(terms, axis=1))

    def test_non_finite_loss_raises_before_any_grad_exists(self):
        w = Parameter("w", [[1.0, 2.0]])
        t, loss = self._linear_loss([w], [[[np.nan, 1.0]]])
        with pytest.raises(NonFiniteError, match=r"^non-finite loss nan$"):
            optimizer_step(t, loss, [w], lr=0.1, clip_norm=1.0)
        assert w._grad is None and w._acc is None
        assert all(node.grad is None for node in t.nodes)  # backward never ran
        np.testing.assert_array_equal(w.value, [[1.0, 2.0]])

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_non_finite_grad_releases_every_grad_and_names_the_parameter(self, clip_norm):
        ok, bad = Parameter("ok", [[1.0]]), Parameter("bad", [[1.0, 2.0]])
        bad.grad[0, 1] = np.inf  # backward adds into it
        t, loss = self._linear_loss([ok, bad], [[[3.0]], [[1.0, 1.0]]])
        with pytest.raises(NonFiniteError, match=r"^non-finite gradient in parameter 'bad'$"):
            optimizer_step(t, loss, [ok, bad], lr=0.1, clip_norm=clip_norm)
        assert all(p._grad is None and p._acc is None for p in (ok, bad))
        np.testing.assert_array_equal(ok.value, [[1.0]])
        np.testing.assert_array_equal(bad.value, [[1.0, 2.0]])

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_grads_are_unscaled_without_clip_norm_and_clipped_with_it(self, clip_norm):
        start = np.array([[0.5, -0.25]], dtype=np.float32)
        grad = np.array([[30.0, 40.0]], dtype=np.float32)  # norm 50
        w = Parameter("w", start)
        t, loss = self._linear_loss([w], [grad])
        assert optimizer_step(t, loss, [w], lr=0.1, clip_norm=clip_norm) == float(
            t.value(loss)[0, 0])
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

    def test_backward_moves_a_float32_adjoint_and_adds_the_rest(self):
        p = Parameter("w", [[2.0, -1.0]])
        t = Tape()
        w = t.param(p)
        t.backward(t.reduce_sum(t.mul(w, w)))
        assert p.grad is t.grad(w)
        np.testing.assert_array_equal(p.grad, [[4.0, -2.0]])
        t64 = Tape(dtype=np.float64)
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
        tracemalloc.start()
        try:
            clip_global_norm([p], 2.0)
            adagrad_step([p], lr=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 64 * 1024

    def test_clip_norm_alone_stays_within_one_mebibyte(self):
        # The float64 squares are made one chunk of at most SUM_CHUNK
        # elements at a time, so no grad-sized temporary is left.
        p = Parameter("big", np.zeros((1, 1 << 20), dtype=np.float32))
        p.grad[...] = 1.0
        tracemalloc.start()
        try:
            clip_global_norm([p], 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_adagrad_alone_stays_within_one_mebibyte(self):
        p = Parameter("big", np.zeros((1, 1 << 20), dtype=np.float32))
        p.adagrad_acc  # created before tracing: only the step's temporaries count
        p.grad[...] = 1.0
        tracemalloc.start()
        try:
            adagrad_step([p], lr=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


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
    p = Parameter("w", value)
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
        p = Parameter("w", value)
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
