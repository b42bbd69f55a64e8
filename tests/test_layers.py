"""Embedding, LSTM cell, bidirectional encoder, and linear-layer contracts."""

import ast
import itertools
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b3sum import layers
from b3sum.layers import (
    BiLstmEncoder,
    EmbeddingTable,
    LstmCell,
    ParamInit,
    bilstm_encode,
    embed_rows,
    linear,
    lstm_step,
    zeros_param,
)
from b3sum import classifier, summarizer
from b3sum.classifier import ClassifierParams, ClassifierTrainConfig, LabeledExample
from b3sum.config import RunConfig
from b3sum.tape import DimensionError, Kernel, Parameter, Tape, finite_diff_check, optimizer_step

import oracles
from helpers import tiny_corpus, tiny_summarizer, traced_peak, unread_nodes, zero_params


def _rng(seed=0):
    return np.random.default_rng(seed)


def _drawn(make, seed, *args, **kwargs):
    """What ``make(init, ...)`` returns for a ``ParamInit`` of ``seed``,
    once ``init.draw()`` has filled it."""
    init = ParamInit(seed)
    made = make(init, *args, **kwargs)
    init.draw()
    return made


class TestEmbedding:
    def test_repeated_ids_give_identical_rows(self):
        table = _drawn(EmbeddingTable, 0, "e", vocab_size=5, dim=3)
        t = Tape()
        first, second = t.value(embed_rows(t, table, [0, 0]))
        np.testing.assert_array_equal(first, second)

    def test_zero_table_embeds_to_zero(self):
        table = _drawn(EmbeddingTable, 0, "e", 5, 3)
        zero_params(table.params())
        t = Tape()
        np.testing.assert_array_equal(t.value(embed_rows(t, table, [1, 4])), np.zeros((2, 3)))

    def test_lookup_adjoint_is_one_hot_row(self):
        table = _drawn(EmbeddingTable, 1, "e", 5, 3)
        t = oracles.OracleTape()
        t.backward(t.reduce_sum(embed_rows(t, table, [3])))
        expected = np.zeros((5, 3), dtype=np.float32)
        expected[3] = 1.0
        np.testing.assert_array_equal(table.weights.grad, expected)

    def test_out_of_range_id_names_position(self):
        table = _drawn(EmbeddingTable, 0, "e", 5, 3)
        t = Tape()
        with pytest.raises(IndexError, match="position 1"):
            embed_rows(t, table, [0, 9])
        with pytest.raises(IndexError, match="position 0"):
            embed_rows(t, table, [7])
        with pytest.raises(IndexError, match="position 2"):
            embed_rows(t, table, [0, 1, -1])

    def test_rows_match_one_hot_product(self):
        table = _drawn(EmbeddingTable, 2, "e", 6, 4)
        ids = [2, 5, 1, 5]
        one_hot = np.eye(6, dtype=np.float32)[ids]
        t = Tape()
        rows = t.value(embed_rows(t, table, ids))
        np.testing.assert_array_equal(rows, one_hot @ table.weights.value)


class TestLstmStep:
    def test_all_zero_weights_and_state_give_zero(self):
        cell = _drawn(LstmCell, 0, "c", input_dim=3, hidden_dim=4)
        zero_params(cell.params())
        t = Tape()
        x = t.leaf([[0.7, -0.2, 1.0]])
        s1 = lstm_step(t, cell, x, cell.zero_state(t))
        np.testing.assert_allclose(t.value(s1), np.zeros((1, 8)), atol=1e-7)

    def test_zero_weights_halve_previous_cell(self):
        cell = _drawn(LstmCell, 0, "c", 2, 3)
        zero_params(cell.params())
        t = Tape()
        x = t.leaf([[1.0, 2.0]])
        s0 = t.leaf([[0.0, 0.0, 0.0, 0.4, -0.8, 1.2]])
        np.testing.assert_allclose(t.value(lstm_step(t, cell, x, s0))[:, 3:],
                                   [[0.2, -0.4, 0.6]], atol=1e-7)

    def test_input_dim_checked(self):
        # the kernel's shape check, naming every shape it was handed
        cell = _drawn(LstmCell, 0, "c", 3, 4)
        t = Tape()
        shapes = [(4, 7)] * 4 + [(1, 4)] * 4
        with pytest.raises(DimensionError, match=re.escape(
                f"lstm: inputs (1, 2), state (1, 8), gate weights and biases {shapes}")):
            lstm_step(t, cell, t.leaf([[1.0, 2.0]]), cell.zero_state(t))

    def test_gradients_match_finite_differences(self):
        cell = _drawn(LstmCell, 5, "c", 3, 4)
        x_val = _rng(6).uniform(-1, 1, size=(1, 3))

        def build(dtype):
            t = oracles.OracleTape(dtype=dtype)
            x = t.leaf(x_val)
            s1 = lstm_step(t, cell, x, cell.zero_state(t))
            s2 = lstm_step(t, cell, x, s1)
            return t, t.reduce_sum(t.mul(s2, s2))

        report = finite_diff_check(build, cell.params(), h=1e-3, tol=1e-3)
        assert report.ok, report

    def test_hidden_state_bounded(self):
        rng = _rng(9)
        cell = _drawn(LstmCell, rng, "c", 3, 5)
        for p in cell.params():  # exaggerate weights to push toward the bounds
            p.value[...] = rng.uniform(-3, 3, size=p.value.shape).astype(np.float32)
        t = Tape()
        s = lstm_step(t, cell, t.leaf(rng.uniform(-5, 5, size=(20, 3))), cell.zero_state(t))
        assert (np.abs(t.value(s)[:, :5]) < 1.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_rows_are_byte_equal_to_per_gate_steps(self, dtype, reverse):
        # Each row makes the per-step cell's four gate products, so each row
        # [h_t | c_t] is the per-step composite's, bit for bit, at a hidden
        # size where one stacked four-gate product would round differently.
        cell = _drawn(LstmCell, 14, "c", 5, 6)
        vals = _rng(15).uniform(-1, 1, size=(7, 5))
        state = _rng(16).uniform(-1, 1, size=(1, 12))
        t = oracles.OracleTape(dtype)
        rows = t.value(lstm_step(t, cell, t.leaf(vals), t.leaf(state), reverse=reverse))
        h, c = t.leaf(state[:, :6]), t.leaf(state[:, 6:])
        expected = [None] * len(vals)
        for k in reversed(range(len(vals))) if reverse else range(len(vals)):
            h, c = oracles.lstm_step(t, cell, t.leaf(vals[k : k + 1]), h, c)
            expected[k] = np.concatenate([t.value(h), t.value(c)], axis=1)
        assert rows.tobytes() == np.concatenate(expected).tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_the_per_step_composite(self, reverse):
        # backpropagation through time inside the kernel against the
        # per-step graph's adjoints, every weight and the initial state
        cell = _drawn(LstmCell, 17, "c", 3, 4)
        vals = _rng(18).uniform(-1, 1, size=(5, 3))
        state = _rng(19).uniform(-1, 1, size=(1, 8))
        read = _rng(20).uniform(-1, 1, size=(5, 8))

        def grads(per_step):
            t = oracles.OracleTape(np.float64)
            xs, s0 = t.leaf(vals, needs_grad=True), t.leaf(state, needs_grad=True)
            if per_step:
                h, c = t.slice(s0, cols=(0, 4)), t.slice(s0, cols=(4, 8))
                rows = [None] * len(vals)
                for k in reversed(range(len(vals))) if reverse else range(len(vals)):
                    h, c = oracles.lstm_step(t, cell, t.slice(xs, (k, k + 1)), h, c)
                    rows[k] = t.concat([h, c], axis=1)
                out = t.concat(rows, axis=0)
            else:
                out = lstm_step(t, cell, xs, s0, reverse=reverse)
            leaves = {p.name: t.param(p) for p in cell.params()}
            t.backward(t.reduce_sum(t.mul(out, t.leaf(read))))
            return {"xs": t.grad(xs), "s0": t.grad(s0),
                    **{name: t.grad(nid) for name, nid in leaves.items()}}

        kernel, per_step = grads(False), grads(True)
        for name, ref in per_step.items():
            np.testing.assert_allclose(kernel[name], ref, rtol=0, atol=1e-12, err_msg=name)

    def test_training_tapes_hold_no_stacked_gate_copy(self, monkeypatch):
        # The kernel reads each gate's weight and bias leaf as stored, so no
        # computed node of a training tape holds a cell's four gates joined.
        _, vocab, prepared = tiny_corpus(n=2)
        summ = tiny_summarizer(vocab.size, emb=3, hidden=5)
        cls = ClassifierParams(vocab.size, emb_dim=4, hidden_dim=6, seed=1)
        shapes = []

        def recording(build, *args, **kwargs):
            def traced(tape):
                loss = build(tape)
                shapes.append({n.value.shape for n in tape.nodes if n.kernel is not Kernel.LEAF})
                return loss

            return optimizer_step(traced, *args, **kwargs)

        monkeypatch.setattr(summarizer, "optimizer_step", recording)
        monkeypatch.setattr(classifier, "optimizer_step", recording)
        summarizer.train_batch(summ, prepared, RunConfig())
        classifier.train_classifier(
            cls, [LabeledExample([5, 6, 7], 0), LabeledExample([8, 9], 1)], None,
            ClassifierTrainConfig(batch_size=2, epochs=1))
        assert len(shapes) == 2
        for cells, seen in (
            ([summ.encoder.forward_cell, summ.encoder.backward_cell, summ.decoder], shapes[0]),
            ([cls.encoder.forward_cell, cls.encoder.backward_cell], shapes[1]),
        ):
            for cell in cells:
                stacked_w = (4 * cell.hidden_dim, cell.input_dim + cell.hidden_dim)
                assert stacked_w not in seen and (1, 4 * cell.hidden_dim) not in seen


def test_no_production_tape_holds_an_unread_node(monkeypatch):
    # Every computed node but the root is read by a later one: training
    # tapes of both models, a loss and a decision built on their own, and
    # the summarizer's decoding and evaluation tapes, recorded.
    pairs, vocab, prepared = tiny_corpus(n=2)
    summ = tiny_summarizer(vocab.size, emb=3, hidden=5)
    cls = ClassifierParams(vocab.size, emb_dim=4, hidden_dim=6, seed=1)
    tapes = {}

    def recording(name):
        def step(build, *args, **kwargs):
            def traced(tape):
                tapes[name] = tape
                return build(tape)

            return optimizer_step(traced, *args, **kwargs)

        return step

    for use_coverage in (False, True):
        monkeypatch.setattr(summarizer, "optimizer_step", recording(f"train_batch {use_coverage}"))
        summarizer.train_batch(summ, prepared, RunConfig(), use_coverage=use_coverage)
        tapes[f"sequence_loss {use_coverage}"] = t = Tape()
        summarizer.sequence_loss(t, summ, prepared[0], use_coverage=use_coverage)
    monkeypatch.setattr(classifier, "optimizer_step", recording("classifier step"))
    classifier.train_classifier(
        cls, [LabeledExample([5, 6, 7], 0), LabeledExample([8, 9], 1)], None,
        ClassifierTrainConfig(batch_size=2, epochs=1))
    tapes["decision_distribution"] = t = Tape()
    classifier.decision_distribution(t, cls, [5, 6, 7])

    made = []

    def recording_tape(record=True):  # in place of the tape that records nothing
        made.append(Tape())
        return made[-1]

    monkeypatch.setattr(summarizer, "Tape", recording_tape)
    runs = {
        "decode greedy": lambda cov: summarizer.decode(
            summ, pairs[0].article, vocab, max_decode_len=5, use_coverage=cov),
        "decode beam": lambda cov: summarizer.decode(
            summ, pairs[0].article, vocab, mode="beam", max_decode_len=5, use_coverage=cov),
        "token_prediction_accuracy": lambda cov: summarizer.token_prediction_accuracy(
            summ, prepared[:1], use_coverage=cov),
        "corpus_loss": lambda cov: summarizer.corpus_loss(summ, prepared[:1], use_coverage=cov),
    }
    for (name, run), use_coverage in itertools.product(runs.items(), (False, True)):
        run(use_coverage)
        tapes[f"{name} {use_coverage}"] = made.pop()
    assert len(tapes) == 14 and not made

    unread = {}
    for name, t in tapes.items():
        if name.startswith("decode"):  # each step's copy mix is read through tape.value
            unread[name] = unread_nodes(t, (Kernel.COPY_MIX,))
        else:
            unread[name] = unread_nodes(t)
    assert unread == {name: [] for name in tapes}


class TestBiLstmEncoder:
    def test_single_token_shapes(self):
        enc = _drawn(BiLstmEncoder, 3, "e", input_dim=3, hidden_dim=4)
        t = Tape()
        states = bilstm_encode(t, enc, t.leaf([[0.1, 0.2, 0.3]]))
        assert t.value(states.h_concat).shape == (1, 8)
        assert states.length == 1

    def test_zero_weights_give_zero_states(self):
        enc = _drawn(BiLstmEncoder, 0, "e", 2, 3)
        zero_params(enc.params())
        t = Tape()
        states = bilstm_encode(t, enc, t.leaf([[1.0, -1.0], [0.5, 2.0]]))
        np.testing.assert_allclose(t.value(states.h_concat), np.zeros((2, 6)), atol=1e-7)

    def test_output_length_matches_input(self):
        enc = _drawn(BiLstmEncoder, 4, "e", 2, 3)
        t = Tape()
        states = bilstm_encode(t, enc, t.leaf(_rng(5).uniform(-1, 1, size=(5, 2))))
        assert t.value(states.h_concat).shape == (5, 6)

    def test_empty_sequence_rejected(self):
        enc = _drawn(BiLstmEncoder, 0, "e", 2, 3)
        t = Tape()
        with pytest.raises(DimensionError, match=r"lstm: inputs \(0, "):
            bilstm_encode(t, enc, t.leaf(np.zeros((0, 2))))

    def test_backward_direction_replays_forward_on_reversed_input(self):
        # The backward half at position i equals running that same cell,
        # forward, over the reversed sequence.
        enc = _drawn(BiLstmEncoder, 8, "e", 2, 3)
        vals = _rng(11).uniform(-1, 1, size=(4, 2))
        t = Tape()
        bwd_half = t.value(bilstm_encode(t, enc, t.leaf(vals)).h_concat)[:, 3:]

        t2 = Tape()
        replay = t2.value(lstm_step(t2, enc.backward_cell, t2.leaf(vals[::-1]),
                                    enc.backward_cell.zero_state(t2)))[:, :3]
        np.testing.assert_array_equal(bwd_half, replay[::-1])

    def test_final_c_is_built_only_when_asked(self):
        # Encoding makes the two lstm nodes; a state is built when first
        # read (two slices and a concat) and kept for later reads.
        enc = _drawn(BiLstmEncoder, 9, "e", 2, 3)
        vals = _rng(12).uniform(-1, 1, size=(4, 2))
        t = oracles.OracleTape()
        states = bilstm_encode(t, enc, t.leaf(vals))
        assert [n.kernel for n in t.nodes if n.kernel is not Kernel.LEAF] == [Kernel.LSTM] * 2
        made = len(t)
        final_c = states.final_c
        assert len(t) == made + 3
        assert states.final_c == final_c and len(t) == made + 3
        ref = oracles.bilstm_encode(t, enc, [t.leaf(vals[k : k + 1]) for k in range(4)])
        for got, want in ((final_c, ref.final_c), (states.final_h, ref.final_h),
                          (states.h_concat, ref.h_concat)):
            assert t.value(got).tobytes() == t.value(want).tobytes()

    def test_gradcheck_through_encoder(self):
        enc = _drawn(BiLstmEncoder, 13, "e", 2, 3)
        vals = _rng(20).uniform(-1, 1, size=(3, 2))

        def build(dtype):
            t = oracles.OracleTape(dtype=dtype)
            states = bilstm_encode(t, enc, t.leaf(vals))
            loss = t.reduce_sum(t.mul(states.h_concat, states.h_concat))
            return t, t.add(loss, t.reduce_sum(t.mul(states.final_c, states.final_c)))

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
        w = _drawn(ParamInit.uniform, 1, "w", (3, 2))
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
        cell = _drawn(LstmCell, 42, "c", 8, 8)
        for g in ("i", "f", "o", "g"):
            assert (np.abs(cell.w[g].value) <= 0.1).all()
        np.testing.assert_array_equal(cell.b["f"].value, np.ones((1, 8)))
        np.testing.assert_array_equal(cell.b["i"].value, np.zeros((1, 8)))

    def test_gate_matrix_orientation(self):
        cell = _drawn(LstmCell, 0, "c", input_dim=5, hidden_dim=3)
        assert cell.w["i"].value.shape == (3, 8)  # (hidden, input + hidden)


def _buffered_pcg64(seed):
    """A PCG64 generator holding a buffered 32-bit word, which
    ``PCG64.advance`` clears."""
    rng = np.random.default_rng(seed)
    rng.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


GENERATORS = {
    "pcg64": np.random.default_rng,
    "pcg64-buffered-word": _buffered_pcg64,
    "mt19937": lambda s: np.random.Generator(np.random.MT19937(s)),
    "philox": lambda s: np.random.Generator(np.random.Philox(s)),
}


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` values, whose MT19937 and
    Philox forms hold arrays."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same_state(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _count_thread_starts(monkeypatch):
    starts = []
    start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


def _random_tensors(model) -> list[str]:
    """Names of the model's tensors that are not one repeated value: at
    these shapes, the ones drawn at random."""
    return [p.name for p in model.params() if p.value.min() != p.value.max()]


def _serial(gen, specs) -> list[Parameter]:
    """The reference: one serial ``rng.uniform`` call per tensor."""
    return [oracles.uniform_param(gen, name, shape) for name, shape in specs]


def _one_pass(gen, specs) -> list[Parameter]:
    init = ParamInit(gen)
    params = [init.uniform(name, shape) for name, shape in specs]
    init.draw()
    return params


def _assert_same_draws(got, want, rng, ref):
    assert [p.name for p in got] == [q.name for q in want]
    for p, q in zip(got, want):
        assert p.value.dtype == np.float32 and p.value.shape == q.value.shape
        assert p.value.tobytes() == q.value.tobytes(), p.name
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
    assert rng.random(3).tobytes() == ref.random(3).tobytes()


def _specs(sizes):
    return [(f"t{k}", (1, n)) for k, n in enumerate(sizes)]


# A two-thread stream splits at n // 2 of its n draws (SPLIT_MIN = 2^16).
_HALF = layers.SPLIT_MIN // 2
_SPLIT_CASES = [
    _specs([_HALF, _HALF]),                 # on a tensor boundary
    _specs([_HALF - 5, 10, _HALF - 5]),     # inside a tensor
    _specs([_HALF - 1, 1, _HALF]),          # just after a 1-element tensor
    _specs([_HALF, 1, _HALF - 1]),          # just before one
    _specs([1, 2 * _HALF - 2, 1]),          # 1-element tensors at both ends
    _specs([3, 5]),                         # too few draws to split
]
_SHAPES = st.lists(st.tuples(st.integers(1, 300), st.integers(1, 400)), min_size=1, max_size=6)


class TestParamInit:
    """``ParamInit``'s one-pass draw against one serial ``rng.uniform`` call
    per tensor (``oracles.uniform_param``)."""

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    @pytest.mark.parametrize("shape", [
        (1, 1),
        (7, 300),                      # below SPLIT_MIN
        (256, 256),                    # exactly SPLIT_MIN
        (3, 21847),                    # 65541, odd, above it
        (20000, 256),                  # the paper-shape output layer
    ])
    @pytest.mark.parametrize("seed", [1, 13])
    def test_bytes_and_generator_state_match_one_serial_draw(self, gen, shape, seed):
        rng, ref = GENERATORS[gen](seed), GENERATORS[gen](seed)
        _assert_same_draws(_one_pass(rng, [("w", shape)]), _serial(ref, [("w", shape)]),
                           rng, ref)

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    @settings(max_examples=40, deadline=None)
    @given(shapes=_SHAPES, seed=st.integers(0, 2**64 - 1))
    @example(shapes=[(256, 128), (256, 128)], seed=1)
    def test_a_stream_of_tensors_matches_serial_draws(self, gen, shapes, seed):
        specs = [(f"t{k}", shape) for k, shape in enumerate(shapes)]
        self._check_stream(gen, specs, seed)

    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    @pytest.mark.parametrize("specs", _SPLIT_CASES,
                             ids=["boundary", "inside", "after-1", "before-1", "ends-1", "serial"])
    def test_every_split_place_matches_serial_draws(self, gen, specs):
        self._check_stream(gen, specs, 5)

    @staticmethod
    def _check_stream(gen, specs, seed):
        rng, ref = GENERATORS[gen](seed), GENERATORS[gen](seed)
        with pytest.MonkeyPatch.context() as mp:
            starts = _count_thread_starts(mp)
            got = _one_pass(rng, specs)
        _assert_same_draws(got, _serial(ref, specs), rng, ref)
        n = sum(p.value.size for p in got)
        split = gen.startswith("pcg64") and n >= layers.SPLIT_MIN
        assert len(starts) == split  # MT19937 and Philox stay serial

    def test_float64_draws_match_before_the_cast(self):
        """A float64 change of one ulp seldom moves the float32 cast, so the
        arithmetic is checked before it."""
        n = 3 * layers.CHUNK + 5
        out = np.empty(n, dtype=np.float64)
        layers._fill_uniform(_rng(4), [("w", out)])
        assert out.tobytes() == _rng(4).uniform(-0.1, 0.1, size=n).tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_vocab_20k_models_match_the_serial_reference(self, monkeypatch, seed):
        fast_s = summarizer.SummarizerParams(20000, 128, 256, seed=seed)
        fast_c = ClassifierParams(20000, 128, 256, seed=seed)
        drawn = oracles.use_serial_init(monkeypatch)
        ref_s = summarizer.SummarizerParams(20000, 128, 256, seed=seed)
        ref_c = ClassifierParams(20000, 128, 256, seed=seed)
        # every random tensor of the reference came from the serial draw
        assert drawn == _random_tensors(fast_s) + _random_tensors(fast_c)
        for fast, ref in ((fast_s, ref_s), (fast_c, ref_c)):
            assert [p.name for p in fast.params()] == [p.name for p in ref.params()]
            for p, q in zip(fast.params(), ref.params()):
                assert p.value.tobytes() == q.value.tobytes(), p.name

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        draw_chunk = layers._draw_chunk

        def failing_in_helper(gen, chunk):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper part failed")
            draw_chunk(gen, chunk)

        monkeypatch.setattr(layers, "_draw_chunk", failing_in_helper)
        starts = _count_thread_starts(monkeypatch)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="helper part failed"):
            ClassifierParams(2000, 32, 32, seed=3)  # 80,512 draws
        assert len(starts) == 1
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("sizes, poisoned, name", [
        ([_HALF, _HALF], 0, "t1"),              # the helper's half is all of t1
        ([_HALF - 5, 10, _HALF - 5], 0, "t1"),  # it starts inside t1
        ([_HALF - 5, 10, _HALF - 5], 1, "t2"),  # and goes on to t2
    ])
    def test_a_nan_in_the_helpers_half_is_named(self, monkeypatch, sizes, poisoned, name):
        draw_chunk = layers._draw_chunk
        helper_calls = []

        def nan_in_helper(gen, chunk):
            draw_chunk(gen, chunk)
            if threading.current_thread() is not threading.main_thread():
                if len(helper_calls) == poisoned:
                    chunk[-1] = np.nan
                helper_calls.append(len(chunk))

        monkeypatch.setattr(layers, "_draw_chunk", nan_in_helper)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match=f"parameter '{name}' has non-finite values"):
            _one_pass(_rng(3), _specs(sizes))
        assert set(threading.enumerate()) == before

    def test_a_vocab_20k_model_is_drawn_into_the_arrays_it_keeps(self, monkeypatch):
        # No tensor-sized float64 buffer and no copy: the float32 tensors,
        # one float64 chunk per thread and a little slack.
        filled = []
        fill = layers._fill_uniform

        def recording(gen, segments):
            filled.extend(v for _, v in segments)
            fill(gen, segments)

        monkeypatch.setattr(layers, "_fill_uniform", recording)
        with traced_peak() as traced:
            model = summarizer.SummarizerParams(20000, 128, 256, seed=5)
        kept = sum(p.value.nbytes for p in model.params())
        assert traced.peak <= kept + 2 * 8 * layers.CHUNK + 64 * 1024
        values = {id(p.value) for p in model.params()}
        assert all(id(v.base) in values for v in filled)
        assert sum(v.size for v in filled) == sum(
            p.value.size for p in model.params() if p.name in _random_tensors(model))

    def test_tiny_model_starts_no_thread(self, monkeypatch):
        starts = _count_thread_starts(monkeypatch)
        tiny_summarizer()
        summarizer.SummarizerParams(300, 32, 32, seed=1)
        ClassifierParams(300, 32, 32, seed=1)
        assert starts == []

    def test_vocab_20k_model_starts_one_helper_thread(self, monkeypatch):
        starts = _count_thread_starts(monkeypatch)
        summarizer.SummarizerParams(20000, 128, 256, seed=1)
        assert starts == ["ParamInit.draw"]


_THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process",
                    "Pool", "start_new_thread", "fork"}


def test_src_has_one_thread_start_site():
    """The README's concurrency note: the only thread b3sum starts is
    ``ParamInit.draw``'s helper."""
    src = Path(layers.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in _THREAD_STARTERS:
                    sites.append((path.name, node.lineno, name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                for mod in mods:
                    if mod.split(".")[0] in ("multiprocessing", "concurrent", "_thread"):
                        sites.append((path.name, node.lineno, mod))
    assert [(f, name) for f, _, name in sites] == [("layers.py", "Thread")], sites
