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

from dataclasses import dataclass

import numpy as np

from .tape import DimensionError, Parameter, Tape

INIT_SCALE = 0.1
FORGET_BIAS = 1.0


def uniform_param(rng: np.random.Generator, name: str, shape) -> Parameter:
    value = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(np.float32)
    return Parameter(name, value)


def zeros_param(name: str, shape) -> Parameter:
    return Parameter(name, np.zeros(shape, dtype=np.float32))


class EmbeddingTable:
    """Token-id to vector lookup; row k of the weight matrix embeds id k."""

    def __init__(self, rng: np.random.Generator, name: str, vocab_size: int, dim: int):
        self.vocab_size = vocab_size
        self.dim = dim
        self.weights = uniform_param(rng, name, (vocab_size, dim))

    def params(self):
        return [self.weights]


def embed_rows(tape: Tape, table: EmbeddingTable, ids) -> int:
    """The (len(ids) x dim) embeddings of ``ids``, one ``gather_rows`` node;
    the adjoint adds into the selected rows only.  An id outside the table
    raises IndexError naming its position."""
    return tape.gather_rows(tape.param(table.weights), ids)


class LstmCell:
    """Standard LSTM cell; gate matrices are (hidden x (input + hidden))."""

    GATES = ("i", "f", "o", "g")

    def __init__(self, rng: np.random.Generator, name: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w = {
            gate: uniform_param(rng, f"{name}.W_{gate}", (hidden_dim, input_dim + hidden_dim))
            for gate in self.GATES
        }
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
    gate's weight and bias leaf as it is stored.
    """
    if tape.value(xs).shape[1] != cell.input_dim:
        raise DimensionError(
            f"lstm_step: input dims {tape.value(xs).shape} != (n, {cell.input_dim})"
        )
    return tape.lstm(xs, s0, [tape.param(cell.w[g]) for g in cell.GATES],
                     [tape.param(cell.b[g]) for g in cell.GATES], reverse)


class BiLstmEncoder:
    def __init__(self, rng: np.random.Generator, name: str, input_dim: int, hidden_dim: int):
        self.forward_cell = LstmCell(rng, f"{name}.fwd", input_dim, hidden_dim)
        self.backward_cell = LstmCell(rng, f"{name}.bwd", input_dim, hidden_dim)
        self.hidden_dim = hidden_dim

    def params(self):
        return self.forward_cell.params() + self.backward_cell.params()


@dataclass
class EncoderStates:
    """Per-position states plus the sequence's final state.

    ``h_concat`` is the (n x 2*hidden) node of each position's forward and
    backward h.  ``final_h`` and ``final_c`` are (1 x 2*hidden) nodes that
    join the forward state after the last token and the backward state after
    the first, each having read the whole sequence; ``final_c`` is None
    unless ``bilstm_encode`` was asked for it.
    """

    h_concat: int
    final_h: int
    final_c: int | None
    length: int


def bilstm_encode(tape: Tape, enc: BiLstmEncoder, xs: int,
                  final_c: bool = False) -> EncoderStates:
    """Both directions over the rows of ``xs`` (n x input), one ``lstm_step``
    each; ``final_c`` also builds the final cell state."""
    n = tape.value(xs).shape[0]
    if n == 0:
        raise ValueError("bilstm_encode: empty input sequence")
    fwd = lstm_step(tape, enc.forward_cell, xs, enc.forward_cell.zero_state(tape))
    bwd = lstm_step(tape, enc.backward_cell, xs, enc.backward_cell.zero_state(tape),
                    reverse=True)
    h, c = (0, enc.hidden_dim), (enc.hidden_dim, 2 * enc.hidden_dim)

    def final(cols):
        return tape.concat([tape.slice(fwd, (n - 1, n), cols), tape.slice(bwd, (0, 1), cols)],
                           axis=1)

    return EncoderStates(
        h_concat=tape.concat([tape.slice(fwd, cols=h), tape.slice(bwd, cols=h)], axis=1),
        final_h=final(h),
        final_c=final(c) if final_c else None,
        length=n,
    )


def linear(tape: Tape, w: Parameter, b: Parameter, x: int) -> int:
    """Affine map W x + b applied to each row of ``x``; W stored as (out, in)."""
    return tape.add(tape.matmul(x, tape.param(w), transpose_b=True), tape.param(b))
