"""Embedding tables, linear maps, an LSTM cell, and a bidirectional encoder.

All layers are parameter containers plus functions that append kernels to a
Tape.  Weight matrices are stored in (out_dim, in_dim) orientation; forward
passes multiply by them transposed (``matmul(..., transpose_b=True)``), so no
transposed copy is made.  Sequence inputs travel as lists of 1-row matrices
so recurrent steps never need to slice a tape node.
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


def embed_rows(tape: Tape, table: EmbeddingTable, ids) -> list[int]:
    """Embed each id as its own 1-row gather of the table (recurrent-step
    friendly); the adjoint adds into the selected rows only."""
    for k, i in enumerate(ids):
        if not 0 <= i < table.vocab_size:
            raise IndexError(
                f"embedding id {i} at position {k} out of range (vocab {table.vocab_size})"
            )
    w = tape.param(table.weights)
    return [tape.gather_rows(w, (i,)) for i in ids]


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

    def zero_state(self, tape: Tape) -> tuple[int, int]:
        z = np.zeros((1, self.hidden_dim), dtype=tape.dtype)
        return tape.leaf(z), tape.leaf(z.copy())


def lstm_step(tape: Tape, cell: LstmCell, x: int, h_prev: int, c_prev: int) -> tuple[int, int]:
    """One LSTM step: returns (h_t, c_t), both 1-row nodes."""
    if tape.value(x).shape != (1, cell.input_dim):
        raise DimensionError(
            f"lstm_step: input dims {tape.value(x).shape} != (1, {cell.input_dim})"
        )
    xs = tape.concat([x, h_prev], axis=1)

    def gate(name, activation):
        return activation(linear(tape, cell.w[name], cell.b[name], xs))

    i = gate("i", tape.sigmoid)
    f = gate("f", tape.sigmoid)
    o = gate("o", tape.sigmoid)
    g = gate("g", tape.tanh)
    c_t = tape.add(tape.mul(f, c_prev), tape.mul(i, g))
    h_t = tape.mul(o, tape.tanh(c_t))
    return h_t, c_t


class BiLstmEncoder:
    def __init__(self, rng: np.random.Generator, name: str, input_dim: int, hidden_dim: int):
        self.forward_cell = LstmCell(rng, f"{name}.fwd", input_dim, hidden_dim)
        self.backward_cell = LstmCell(rng, f"{name}.bwd", input_dim, hidden_dim)
        self.hidden_dim = hidden_dim

    def params(self):
        return self.forward_cell.params() + self.backward_cell.params()


@dataclass
class EncoderStates:
    """Per-position concatenated states plus the direction endpoints.

    ``h_concat`` is an (n x 2*hidden) node; ``fwd_final`` is the forward
    state after the last token and ``bwd_first`` the backward state after it
    has consumed the whole sequence (its value at position 1).
    """

    h_concat: int
    fwd_final: tuple[int, int]
    bwd_first: tuple[int, int]
    length: int


def bilstm_encode(tape: Tape, enc: BiLstmEncoder, xs: list[int]) -> EncoderStates:
    if not xs:
        raise ValueError("bilstm_encode: empty input sequence")
    h_f, c_f = enc.forward_cell.zero_state(tape)
    fwd = []
    for x in xs:
        h_f, c_f = lstm_step(tape, enc.forward_cell, x, h_f, c_f)
        fwd.append(h_f)
    h_b, c_b = enc.backward_cell.zero_state(tape)
    bwd = [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        h_b, c_b = lstm_step(tape, enc.backward_cell, xs[k], h_b, c_b)
        bwd[k] = h_b
    return EncoderStates(
        h_concat=tape.concat([tape.concat(fwd, axis=0), tape.concat(bwd, axis=0)], axis=1),
        fwd_final=(fwd[-1], c_f),
        bwd_first=(bwd[0], c_b),
        length=len(xs),
    )


def linear(tape: Tape, w: Parameter, b: Parameter, x: int) -> int:
    """Affine map W x + b applied to each row of ``x``; W stored as (out, in)."""
    return tape.add(tape.matmul(x, tape.param(w), transpose_b=True), tape.param(b))
