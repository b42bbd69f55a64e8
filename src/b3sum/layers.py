"""Embedding tables, linear maps, an LSTM cell, and a bidirectional encoder.

All layers are parameter containers plus functions that append kernels to a
Tape.  Weight matrices are stored in (out_dim, in_dim) orientation; forward
passes multiply by them transposed (``matmul(..., transpose_b=True)``), so no
transposed copy is made.  A sequence travels as one (n x dim) node, one row
per position: ``embed_rows`` gathers all its ids at once and ``lstm_step``
runs a cell over all its rows as one ``lstm`` node.  An LSTM state is one
row ``[h | c]``.
"""

from __future__ import annotations

import copy
import threading
from functools import cached_property

import numpy as np

from .tape import Parameter, Tape, all_finite

INIT_SCALE = 0.1
FORGET_BIAS = 1.0


# Element counts: a model of SPLIT_MIN or more draws is drawn on two threads
# (see ParamInit.draw).  CHUNK float64 draws (512 KiB) stay in cache from the
# draw through the finiteness check and the scale to the float32 result, and
# are few enough calls that numpy's per-call cost stays small.
SPLIT_MIN = 1 << 16
CHUNK = 1 << 16


def _draw_chunk(gen: np.random.Generator, chunk: np.ndarray) -> None:
    """Overwrite the float64 ``chunk`` with ``gen``'s next ``len(chunk)``
    draws of ``uniform(-INIT_SCALE, INIT_SCALE)``: numpy's own
    ``low + (high - low) * u``, so they are ``gen.uniform``'s bytes."""
    gen.random(out=chunk)
    chunk *= 2 * INIT_SCALE
    chunk += -INIT_SCALE


def _fill_uniform(gen: np.random.Generator, segments) -> None:
    """Fill each flat view of ``segments``, (name, view) pairs in stream
    order, with ``gen``'s next draws through one float64 buffer of at most
    CHUNK draws.  Each chunk is checked finite while it is in cache (a
    non-finite one raises ValueError naming its parameter), then rounded
    once into its view: a float64 view holds ``gen.uniform``'s bytes, a
    float32 one their cast, finite when they are, since each value lies in
    [-INIT_SCALE, INIT_SCALE]."""
    work = np.empty(min(CHUNK, max(v.size for _, v in segments)), dtype=np.float64)
    for name, v in segments:
        for lo in range(0, v.size, CHUNK):
            dst = v[lo:lo + CHUNK]
            chunk = work[:len(dst)]
            _draw_chunk(gen, chunk)
            if not all_finite(chunk):
                raise ValueError(f"parameter {name!r} has non-finite values")
            dst[...] = chunk  # a plain cast; a ufunc writing float32 would add a 64 KiB buffer


def _split(segments, at: int):
    """``segments`` cut at stream position ``at``: the (name, view) pairs
    before it and those after it, a tensor across ``at`` cut in two views."""
    first, second, lo = [], [], 0
    for name, v in segments:
        hi = lo + v.size
        if hi <= at:
            first.append((name, v))
        elif lo >= at:
            second.append((name, v))
        else:
            first.append((name, v[:at - lo]))
            second.append((name, v[at - lo:]))
        lo = hi
    return first, second


def zeros_param(name: str, shape) -> Parameter:
    return Parameter._unchecked(name, np.zeros(shape, dtype=np.float32))


class ParamInit:
    """The random tensors of one model, drawn as one stream.

    ``seed`` is an int or a ``np.random.Generator``, which is drawn from in
    place; with ``seed=None`` every tensor is zeros, made without a draw, for
    a checkpoint to fill.  A model declares its tensors with ``uniform`` in
    stream order and then calls ``draw`` once, which fills them all: each
    holds ``rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)`` cast to
    float32, as if drawn in turn by one serial call per tensor, and leaves
    the generator in the state those calls leave it in.

    The draws go straight into the float32 arrays the Parameters keep, a
    chunk at a time, so no tensor-sized float64 array is made, and each
    chunk is checked finite as it is drawn, so no Parameter reads its values
    again.  A PCG64 stream of at least ``SPLIT_MIN`` draws is split once at
    its midpoint, which may fall inside a tensor: the caller draws the first
    half, and one helper thread draws the second from a copy of the stream
    advanced past the first, each through its own chunk buffer.  After the
    join the generator takes the copy's position; ``advance`` clears PCG64's
    buffered 32-bit word, which is put back.  An error in the helper is
    raised in the caller, and no thread outlives ``draw``.
    """

    def __init__(self, seed: int | np.random.Generator | None):
        self.rng = None if seed is None else np.random.default_rng(seed)
        self._declared: list[Parameter] = []

    def uniform(self, name: str, shape) -> Parameter:
        """A Parameter of ``shape`` that ``draw`` fills; zeros without a seed."""
        if self.rng is None:
            return zeros_param(name, shape)
        p = Parameter._unchecked(name, np.empty(shape, dtype=np.float32))
        self._declared.append(p)
        return p

    def draw(self) -> None:
        """Fill every tensor declared since the last call."""
        segments = [(p.name, p.value.reshape(-1)) for p in self._declared]
        self._declared = []
        n = sum(v.size for _, v in segments)
        if n == 0:
            return
        bits = self.rng.bit_generator
        if n < SPLIT_MIN or not isinstance(bits, np.random.PCG64):
            _fill_uniform(self.rng, segments)
            return
        first, second = _split(segments, n // 2)
        ahead = copy.deepcopy(bits)
        ahead.advance(n // 2)
        errors = []

        def second_half():
            try:
                _fill_uniform(np.random.Generator(ahead), second)
            except BaseException as exc:  # re-raised by the caller after the join
                errors.append(exc)

        helper = threading.Thread(target=second_half, name="ParamInit.draw")
        helper.start()
        try:
            _fill_uniform(self.rng, first)
        finally:
            helper.join()
        if errors:
            raise errors[0]
        state = ahead.state
        buffered = bits.state
        state["has_uint32"], state["uinteger"] = buffered["has_uint32"], buffered["uinteger"]
        bits.state = state


class EmbeddingTable:
    """Token-id to vector lookup; row k of the weight matrix embeds id k,
    declared to ``init`` (zeros if it has no seed).  Only
    ``embed_rows`` reads the weights, so they are ``row_sparse``: Adagrad
    keeps state only for the rows training has gathered."""

    def __init__(self, init: ParamInit, name: str, vocab_size: int, dim: int):
        self.vocab_size = vocab_size
        self.dim = dim
        self.weights = init.uniform(name, (vocab_size, dim))
        self.weights.row_sparse = True

    def params(self):
        return [self.weights]


def embed_rows(tape: Tape, table: EmbeddingTable, ids) -> int:
    """The (len(ids) x dim) embeddings of ``ids``, one ``gather_rows`` node;
    the adjoint adds into the selected rows only.  An id outside the table
    raises IndexError naming its position."""
    return tape.gather_rows(tape.param(table.weights), ids)


class LstmCell:
    """Standard LSTM cell; gate matrices are (hidden x (input + hidden)),
    declared to ``init`` (zeros if it has no seed)."""

    GATES = ("i", "f", "o", "g")

    def __init__(self, init: ParamInit, name: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        shape = (hidden_dim, input_dim + hidden_dim)
        self.w = {gate: init.uniform(f"{name}.W_{gate}", shape) for gate in self.GATES}
        self.b = {gate: zeros_param(f"{name}.b_{gate}", (1, hidden_dim)) for gate in self.GATES}
        self.b["f"].value += np.float32(FORGET_BIAS)

    def params(self):
        return [self.w[g] for g in self.GATES] + [self.b[g] for g in self.GATES]

    def zero_state(self, tape: Tape) -> int:
        """The all-zero state row [h | c], (1 x 2*hidden)."""
        return tape.leaf(np.zeros((1, 2 * self.hidden_dim), dtype=tape.dtype))


def lstm_step(tape: Tape, cell: LstmCell, xs: int, s0: int, reverse: bool = False) -> int:
    """The cell over the rows of ``xs`` (n x input) from the state row
    ``s0 = [h0 | c0]``: one ``lstm`` node whose row t is [h_t | c_t], the
    state after reading row t; with ``reverse`` the rows are read last to
    first.  Decoding calls it on one row per step.  The kernel reads each
    gate's weight and bias leaf as it is stored, and rejects a wrong width.
    """
    return tape.lstm(xs, s0, [tape.param(cell.w[g]) for g in cell.GATES],
                     [tape.param(cell.b[g]) for g in cell.GATES], reverse)


class BiLstmEncoder:
    def __init__(self, init: ParamInit, name: str, input_dim: int, hidden_dim: int):
        self.forward_cell = LstmCell(init, f"{name}.fwd", input_dim, hidden_dim)
        self.backward_cell = LstmCell(init, f"{name}.bwd", input_dim, hidden_dim)
        self.hidden_dim = hidden_dim

    def params(self):
        return self.forward_cell.params() + self.backward_cell.params()


class EncoderStates:
    """A sequence's two ``lstm`` nodes, and the states read from them.

    ``h_concat`` is the (n x 2*hidden) node of each position's forward and
    backward h.  ``final_h`` and ``final_c`` are (1 x 2*hidden) nodes that
    join the forward state after the last token and the backward state after
    the first, each having read the whole sequence.  Each is built on the
    tape the first time it is read, and kept; a state no caller reads makes
    no node.
    """

    def __init__(self, tape: Tape, fwd: int, bwd: int, hidden_dim: int, length: int):
        self.tape, self.fwd, self.bwd = tape, fwd, bwd
        self.hidden_dim, self.length = hidden_dim, length

    def _join(self, cols, final: bool) -> int:
        # every row of both directions, or the forward last and the backward first
        rows = ((self.length - 1, self.length), (0, 1)) if final else (None, None)
        halves = [self.tape.slice(d, r, cols) for d, r in zip((self.fwd, self.bwd), rows)]
        return self.tape.concat(halves, axis=1)

    @cached_property
    def h_concat(self) -> int:
        return self._join((0, self.hidden_dim), final=False)

    @cached_property
    def final_h(self) -> int:
        return self._join((0, self.hidden_dim), final=True)

    @cached_property
    def final_c(self) -> int:
        return self._join((self.hidden_dim, 2 * self.hidden_dim), final=True)


def bilstm_encode(tape: Tape, enc: BiLstmEncoder, xs: int) -> EncoderStates:
    """Both directions over the rows of ``xs`` (n x input), one ``lstm_step``
    each."""
    fwd = lstm_step(tape, enc.forward_cell, xs, enc.forward_cell.zero_state(tape))
    bwd = lstm_step(tape, enc.backward_cell, xs, enc.backward_cell.zero_state(tape),
                    reverse=True)
    return EncoderStates(tape, fwd, bwd, enc.hidden_dim, tape.value(xs).shape[0])


def linear(tape: Tape, w: Parameter, b: Parameter, x: int) -> int:
    """Affine map W x + b applied to each row of ``x``; W stored as (out, in)."""
    return tape.add(tape.matmul(x, tape.param(w), transpose_b=True), tape.param(b))
