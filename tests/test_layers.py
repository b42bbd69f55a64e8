"""Embedding, LSTM cell, bidirectional encoder, and linear-layer contracts."""

import numpy as np
import pytest

from b3sum.layers import (
    BiLstmEncoder,
    EmbeddingTable,
    LstmCell,
    bilstm_encode,
    embed_rows,
    linear,
    lstm_step,
    uniform_param,
    zeros_param,
)
from b3sum.tape import Parameter, Tape, finite_diff_check

from helpers import zero_params


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestEmbedding:
    def test_repeated_ids_give_identical_rows(self):
        table = EmbeddingTable(_rng(), "e", vocab_size=5, dim=3)
        t = Tape()
        first, second = (t.value(r) for r in embed_rows(t, table, [0, 0]))
        np.testing.assert_array_equal(first, second)

    def test_zero_table_embeds_to_zero(self):
        table = EmbeddingTable(_rng(), "e", 5, 3)
        zero_params(table.params())
        t = Tape()
        for r in embed_rows(t, table, [1, 4]):
            np.testing.assert_array_equal(t.value(r), np.zeros((1, 3)))

    def test_lookup_adjoint_is_one_hot_row(self):
        table = EmbeddingTable(_rng(1), "e", 5, 3)
        t = Tape()
        t.backward(t.reduce_sum(embed_rows(t, table, [3])[0]))
        expected = np.zeros((5, 3), dtype=np.float32)
        expected[3] = 1.0
        np.testing.assert_array_equal(table.weights.grad, expected)

    def test_out_of_range_id_names_position(self):
        table = EmbeddingTable(_rng(), "e", 5, 3)
        t = Tape()
        with pytest.raises(IndexError, match="position 1"):
            embed_rows(t, table, [0, 9])
        with pytest.raises(IndexError, match="position 0"):
            embed_rows(t, table, [7])
        with pytest.raises(IndexError, match="position 2"):
            embed_rows(t, table, [0, 1, -1])

    def test_rows_match_one_hot_product(self):
        table = EmbeddingTable(_rng(2), "e", 6, 4)
        ids = [2, 5, 1, 5]
        one_hot = np.eye(6, dtype=np.float32)[ids]
        t = Tape()
        rows = [t.value(r)[0] for r in embed_rows(t, table, ids)]
        np.testing.assert_array_equal(np.stack(rows), one_hot @ table.weights.value)

class TestLstmStep:
    def test_all_zero_weights_and_state_give_zero(self):
        cell = LstmCell(_rng(), "c", input_dim=3, hidden_dim=4)
        zero_params(cell.params())
        t = Tape()
        x = t.leaf([[0.7, -0.2, 1.0]])
        h, c = cell.zero_state(t)
        h1, c1 = lstm_step(t, cell, x, h, c)
        np.testing.assert_allclose(t.value(h1), np.zeros((1, 4)), atol=1e-7)
        np.testing.assert_allclose(t.value(c1), np.zeros((1, 4)), atol=1e-7)

    def test_zero_weights_halve_previous_cell(self):
        cell = LstmCell(_rng(), "c", 2, 3)
        zero_params(cell.params())
        t = Tape()
        x = t.leaf([[1.0, 2.0]])
        h = t.leaf(np.zeros((1, 3)))
        c_prev = t.leaf([[0.4, -0.8, 1.2]])
        _, c1 = lstm_step(t, cell, x, h, c_prev)
        np.testing.assert_allclose(t.value(c1), [[0.2, -0.4, 0.6]], atol=1e-7)

    def test_input_dim_checked(self):
        cell = LstmCell(_rng(), "c", 3, 4)
        t = Tape()
        h, c = cell.zero_state(t)
        with pytest.raises(Exception, match="lstm_step"):
            lstm_step(t, cell, t.leaf([[1.0, 2.0]]), h, c)

    def test_gradients_match_finite_differences(self):
        cell = LstmCell(_rng(5), "c", 3, 4)
        x_val = _rng(6).uniform(-1, 1, size=(1, 3))

        def build(dtype):
            t = Tape(dtype=dtype)
            x = t.leaf(x_val)
            h, c = cell.zero_state(t)
            h1, c1 = lstm_step(t, cell, x, h, c)
            h2, _ = lstm_step(t, cell, x, h1, c1)
            return t, t.reduce_sum(t.mul(h2, h2))

        report = finite_diff_check(build, cell.params(), h=1e-3, tol=1e-3)
        assert report.ok, report

    def test_hidden_state_bounded(self):
        rng = _rng(9)
        cell = LstmCell(rng, "c", 3, 5)
        for p in cell.params():  # exaggerate weights to push toward the bounds
            p.value[...] = rng.uniform(-3, 3, size=p.value.shape).astype(np.float32)
        t = Tape()
        h, c = cell.zero_state(t)
        for _ in range(20):
            x = t.leaf(rng.uniform(-5, 5, size=(1, 3)))
            h, c = lstm_step(t, cell, x, h, c)
        assert (np.abs(t.value(h)) < 1.0).all()


class TestBiLstmEncoder:
    def test_single_token_shapes(self):
        enc = BiLstmEncoder(_rng(3), "e", input_dim=3, hidden_dim=4)
        t = Tape()
        states = bilstm_encode(t, enc, [t.leaf([[0.1, 0.2, 0.3]])])
        assert t.value(states.h_concat).shape == (1, 8)
        assert states.length == 1

    def test_zero_weights_give_zero_states(self):
        enc = BiLstmEncoder(_rng(), "e", 2, 3)
        zero_params(enc.params())
        t = Tape()
        xs = [t.leaf([[1.0, -1.0]]), t.leaf([[0.5, 2.0]])]
        states = bilstm_encode(t, enc, xs)
        np.testing.assert_allclose(t.value(states.h_concat), np.zeros((2, 6)), atol=1e-7)

    def test_output_length_matches_input(self):
        enc = BiLstmEncoder(_rng(4), "e", 2, 3)
        t = Tape()
        xs = [t.leaf(_rng(k).uniform(-1, 1, size=(1, 2))) for k in range(5)]
        states = bilstm_encode(t, enc, xs)
        assert t.value(states.h_concat).shape == (5, 6)

    def test_empty_sequence_rejected(self):
        enc = BiLstmEncoder(_rng(), "e", 2, 3)
        with pytest.raises(ValueError, match="empty"):
            bilstm_encode(Tape(), enc, [])

    def test_backward_direction_replays_forward_on_reversed_input(self):
        # The backward half at position i equals running that same cell,
        # forward, over the reversed sequence.
        enc = BiLstmEncoder(_rng(8), "e", 2, 3)
        rng = _rng(11)
        vals = [rng.uniform(-1, 1, size=(1, 2)) for _ in range(4)]
        t = Tape()
        xs = [t.leaf(v) for v in vals]
        states = bilstm_encode(t, enc, xs)
        bwd_half = t.value(states.h_concat)[:, 3:]

        t2 = Tape()
        h, c = enc.backward_cell.zero_state(t2)
        replay = []
        for v in reversed(vals):
            h, c = lstm_step(t2, enc.backward_cell, t2.leaf(v), h, c)
            replay.append(t2.value(h)[0])
        np.testing.assert_array_equal(bwd_half, np.stack(replay[::-1]))

    def test_gradcheck_through_encoder(self):
        enc = BiLstmEncoder(_rng(13), "e", 2, 3)
        vals = [_rng(20 + k).uniform(-1, 1, size=(1, 2)) for k in range(3)]

        def build(dtype):
            t = Tape(dtype=dtype)
            states = bilstm_encode(t, enc, [t.leaf(v) for v in vals])
            return t, t.reduce_sum(t.mul(states.h_concat, states.h_concat))

        report = finite_diff_check(build, enc.params(), h=1e-3, tol=1e-3)
        assert report.ok, report


class TestLinear:
    def test_identity(self):
        w = Parameter("w", np.eye(3, dtype=np.float32))
        b = zeros_param("b", (1, 3))
        t = Tape()
        x = t.leaf([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(t.value(linear(t, w, b, x)), [[1, 2, 3]])

    def test_zero_input_returns_bias(self):
        w = uniform_param(_rng(1), "w", (3, 2))
        b = Parameter("b", [[0.5, -0.5, 1.0]])
        t = Tape()
        out = linear(t, w, b, t.leaf(np.zeros((1, 2))))
        np.testing.assert_allclose(t.value(out), [[0.5, -0.5, 1.0]])

    def test_matches_triple_loop_matmul(self):
        rng = _rng(2)
        w_val = rng.uniform(-1, 1, size=(3, 3)).astype(np.float32)
        x_val = rng.uniform(-1, 1, size=(1, 3)).astype(np.float32)
        b_val = rng.uniform(-1, 1, size=(1, 3)).astype(np.float32)
        expected = np.zeros((1, 3), dtype=np.float64)
        for i in range(3):
            for j in range(3):
                expected[0, i] += float(w_val[i, j]) * float(x_val[0, j])
            expected[0, i] += float(b_val[0, i])
        t = Tape()
        out = linear(t, Parameter("w", w_val), Parameter("b", b_val), t.leaf(x_val))
        np.testing.assert_allclose(t.value(out), expected, rtol=1e-5)


class TestInit:
    def test_uniform_bounds_and_forget_bias(self):
        cell = LstmCell(_rng(42), "c", 8, 8)
        for g in ("i", "f", "o", "g"):
            assert (np.abs(cell.w[g].value) <= 0.1).all()
        np.testing.assert_array_equal(cell.b["f"].value, np.ones((1, 8)))
        np.testing.assert_array_equal(cell.b["i"].value, np.zeros((1, 8)))

    def test_gate_matrix_orientation(self):
        cell = LstmCell(_rng(), "c", input_dim=5, hidden_dim=3)
        assert cell.w["i"].value.shape == (3, 8)  # (hidden, input + hidden)
