"""A reverse-mode autodiff tape over dense matrices, the optimizer step, and gradient checking.

Everything downstream (LSTM layers, the attention decoder, the classifier)
is expressed as a sequence of a small set of kernels appended to a Tape.
Values are float32 by default; reductions and the finite-difference oracle
accumulate in float64.

All tensors handled by the kernels are 2-D matrices: "vectors" are 1-row
matrices and scalars are 1x1.  The tape is topologically ordered by
construction, so backward is a single reverse sweep.  A recurrent layer
over a whole sequence is one ``lstm`` node and attention over R rows one
``attention`` node (scores, softmax and, with coverage, the coverage chain),
each with its own backward rule, so a sequence makes a few nodes rather
than a few per step.  ``Tape(record=False)`` records nothing, for
evaluation and decoding.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32
ADAGRAD_INIT_ACC = 0.1
ADAGRAD_EPS = 1e-10
LOG_PICK_EPS = 1e-12


class DimensionError(ValueError):
    """Raised when kernel inputs have incompatible dims."""


class NonFiniteError(ValueError):
    """Raised when a loss or a gradient holds a NaN or an inf."""


class Kernel(enum.Enum):
    """Compute kernels a tape node can hold.

    LEAF marks tape inputs (constants and parameters).  GATHER_ROWS moves
    rows by integer id, so lookups need no one-hot constant, and SLICE takes
    a block of rows and columns.  COPY_MIX is the pointer-generator's output
    mix, so the copy distribution needs no copy matrix and no chain of
    vocabulary-wide nodes, and its backward reads only the source columns
    of its adjoint.  LSTM runs a whole sequence through an LSTM cell
    and ATTENTION gives R query rows their attention over n positions, with
    coverage running each row's penalty and coverage update in the same
    node; each is one node with its own backward rule, so a sequence makes
    no per-step nodes.  Every kernel here is one the models make.
    """

    LEAF = "leaf"
    MATMUL = "matmul"
    ADD = "add"
    CONCAT = "concat"
    TANH = "tanh"
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"
    NEG_LOG_PICK = "neg-log-pick"
    REDUCE_MEAN = "reduce-mean"
    SCALE = "scale"
    GATHER_ROWS = "gather-rows"
    COPY_MIX = "copy-mix"
    SLICE = "slice"
    LSTM = "lstm"
    ATTENTION = "attention"


# The kernels whose backward rule reads the node's own value; backward drops
# every other node's value before running its rule.
READS_OWN_VALUE = frozenset({Kernel.TANH, Kernel.SIGMOID, Kernel.SOFTMAX, Kernel.LSTM,
                             Kernel.ATTENTION})


class TapeNode:
    __slots__ = ("kernel", "input_ids", "value", "grad", "needs_grad", "arg")

    def __init__(self, kernel, input_ids, value, needs_grad, arg=None):
        self.kernel = kernel
        self.input_ids = input_ids
        self.value = value
        self.grad = None
        self.needs_grad = needs_grad
        # kernel-specific: axis, ids, slices, factor, flag, saved gates or a leaf's Parameter
        self.arg = arg


class NodeCount:
    """``Tape.nodes`` of a tape that records nothing: only how many nodes it made."""

    __slots__ = ("made",)

    def __init__(self):
        self.made = 0

    def __len__(self):
        return self.made


def _distinct(ids) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids and each id's index among them.  With
    ``return_inverse`` numpy sorts; a bare ``np.unique`` imports ``numpy.ma``."""
    return np.unique(ids, return_inverse=True)


class RowBlock:
    """An adjoint that is zero outside a few rows: row ``rows[k]`` of the
    ``shape`` adjoint is ``block[k]``, and ``rows`` is sorted and distinct.

    A leaf that only ``gather_rows`` reads (an embedding table) gets one, so
    backward, the norm, the clip and Adagrad touch only the rows a batch
    gathered; ``dense()`` is the full adjoint.  During the backward sweep
    such a leaf holds the gathers' (ids, adjoint) pairs, and the sweep makes
    them one block when it reaches the leaf.
    """

    __slots__ = ("rows", "block", "shape")

    def __init__(self, rows: np.ndarray, block: np.ndarray, shape):
        self.rows = rows
        self.block = block
        self.shape = shape

    @property
    def dtype(self):
        return self.block.dtype

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.block.dtype)
        out[self.rows] = self.block
        return out

    def flat_chunk(self, start: int, n: int) -> np.ndarray | None:
        """Elements ``start .. start + n`` of the dense adjoint in C order, as
        a new float64 array, or None when no stored row reaches them."""
        width = self.shape[1]
        first, last = start // width, (start + n - 1) // width
        lo, hi = np.searchsorted(self.rows, (first, last + 1))
        if lo == hi:
            return None
        span = np.zeros((last + 1 - first, width), dtype=np.float64)
        span[self.rows[lo:hi] - first] = self.block[lo:hi]
        offset = start - first * width
        return span.reshape(-1)[offset : offset + n].copy()


def _gathered_rows(pairs, like: np.ndarray) -> RowBlock:
    """The ``RowBlock`` of a ``like``-shaped adjoint that ``gather_rows``
    pairs (ids, g) added into, row k of g into row ids[k]: one block over
    their distinct ids, summed in the order ``np.add.at`` would add the
    pairs into a dense adjoint one after another."""
    rows, inverse = _distinct(np.concatenate([ids for ids, _ in pairs]))
    block = np.zeros((rows.size, like.shape[1]), dtype=like.dtype)
    np.add.at(block, inverse, np.concatenate([g for _, g in pairs]))
    return RowBlock(rows, block, like.shape)


# A FactoredGrad forms rows in blocks that start on this grid and hold at
# least this many rows: only such a block of gᵀ·a has the same bytes as
# those rows of the whole product (a block of 1 or 7 rows may not).
ROW_GRID = 16


class FactoredGrad:
    """The adjoint of a parameter that ``transpose_b`` matmuls read, kept as
    the (g, a) pairs their rules pushed, which hold fewer elements than it:
    its value is Σ gₖᵀ·aₖ, added in reader order, then times each factor in
    ``scales`` (the clip's).  The norm and Adagrad form its rows a block at
    a time; ``dense()`` is the full adjoint.  Each pair is a node's adjoint
    and a computed value, which nothing writes again.
    """

    __slots__ = ("pairs", "shape", "dtype", "scales")

    def __init__(self, g: np.ndarray, a: np.ndarray):
        self.pairs = [(g, a)]
        self.shape = (g.shape[1], a.shape[1])
        self.dtype = np.result_type(g, a)
        self.scales = ()

    @property
    def held(self) -> int:
        return sum(g.size + a.size for g, a in self.pairs)

    def rows(self, first: int, stop: int) -> np.ndarray:
        """Rows ``first .. stop`` of the adjoint, formed over those rows
        rounded out to the ``ROW_GRID`` grid."""
        lo, hi = first - first % ROW_GRID, min(stop + -stop % ROW_GRID, self.shape[0])
        if hi - lo < ROW_GRID:  # the last cell of the grid
            lo = max(lo - ROW_GRID, 0)
        (g, a), *rest = self.pairs
        out = g[:, lo:hi].T @ a
        for g, a in rest:
            out += g[:, lo:hi].T @ a
        for factor in self.scales:
            out *= factor
        return out[first - lo : stop - lo]

    def dense(self) -> np.ndarray:
        return self.rows(0, self.shape[0])

    def flat_chunk(self, start: int, n: int, dtype=np.float64) -> np.ndarray:
        """Elements ``start .. start + n`` of the adjoint in C order, as an
        array no one else holds."""
        width = self.shape[1]
        first, stop = start // width, (start + n - 1) // width + 1
        offset = start - first * width
        return self.rows(first, stop).reshape(-1)[offset : offset + n].astype(dtype, copy=False)


class CopyIds:
    """The column each source position's attention is copied to, for
    ``Tape.copy_mix``: ``ids`` checked against ``width`` and their distinct
    ``cols``, with ``ids == cols[inverse]``.  An article derives them once."""

    __slots__ = ("ids", "cols", "inverse", "width")

    def __init__(self, ids, width: int):
        self.ids = _checked_ids(Kernel.COPY_MIX, ids, width, f"width {width}")
        self.cols, self.inverse = _distinct(self.ids)
        self.width = width


def all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite, read without a value-sized mask: a
    float64 sum of float32 values, or of float64 values far below the
    float64 maximum, cannot overflow, so it is finite exactly when every
    value is.  ``Parameter``, a model's draw and ``restore_params`` all
    check values by this one rule."""
    with np.errstate(invalid="ignore"):  # inf + -inf: a nan, rejected
        return math.isfinite(values.sum(dtype=np.float64))


class Parameter:
    """A named trainable tensor with gradient and Adagrad accumulator state.

    ``value`` is the C-contiguous float32 array it is handed, kept rather
    than copied, so the caller gives that array up (a model's tensors are
    never copied); a list, another dtype or another layout is converted.
    A non-finite value raises ValueError naming the parameter.  The private
    ``_unchecked`` keeps a 2-D C-contiguous float32 array without reading
    it, for a maker whose values are finite by construction
    (``layers.zeros_param``) or checked chunk by chunk as they are drawn
    (``layers.ParamInit``), so a model's values are read once, not twice.

    ``grad`` (zeros) is created on first use.  The accumulator
    (``ADAGRAD_INIT_ACC``) is made by ``optimizer_step`` before it builds the
    step's tape, and dropped again if that step raises; a direct read of
    ``adagrad_acc`` makes it too.  So a model that only evaluates or decodes
    holds just its values.  A ``row_sparse`` parameter (an embedding table,
    which only ``gather_rows`` reads) gets no accumulator in advance:
    ``adagrad_step`` keeps a row state for it, a ``RowBlock`` of the rows it
    has updated, and every other row holds ``ADAGRAD_INIT_ACC``, as Adagrad
    leaves a coordinate that never had a gradient.  Reading ``adagrad_acc``,
    a dense grad reaching ``adagrad_step``, or a row state growing past half
    the rows fills it out to a dense array.
    Backward may leave a ``RowBlock`` in ``_grad`` (the adjoint of a table
    only ``gather_rows`` reads) or a ``FactoredGrad`` (of a large weight only
    ``transpose_b`` matmuls read), which the optimizer functions use as it
    is; reading ``grad`` makes it dense.
    ``zero_grad`` releases the grad; the next read of ``grad`` sees zeros.
    """

    __slots__ = ("name", "value", "row_sparse", "_grad", "_acc")

    def __init__(self, name: str, value):
        # C order, so adagrad_step's flat views write into the value itself.
        value = np.ascontiguousarray(value, dtype=np.float32)
        if value.ndim != 2:
            value = np.atleast_2d(value)
        if not all_finite(value):
            raise ValueError(f"parameter {name!r} has non-finite values")
        self._keep(name, value)

    @classmethod
    def _unchecked(cls, name: str, value: np.ndarray) -> Parameter:
        p = cls.__new__(cls)
        p._keep(name, value)
        return p

    def _keep(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = value
        self.row_sparse = False
        self._grad = None
        self._acc = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        elif not isinstance(self._grad, np.ndarray):
            self._grad = self._grad.dense()
        return self._grad

    @property
    def adagrad_acc(self) -> np.ndarray:
        if not isinstance(self._acc, np.ndarray):
            acc = np.full_like(self.value, ADAGRAD_INIT_ACC)
            if self._acc is not None:  # the row state
                acc[self._acc.rows] = self._acc.block
            self._acc = acc
        return self._acc

    def zero_grad(self):
        self._grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _bcast_ok(sa, sb):
    """Shapes equal, or one input is a 1-row, 1-column or 1x1 matrix."""
    if sa == sb:
        return True
    if len(sa) != 2 or len(sb) != 2:
        return False
    return all(a == b or a == 1 or b == 1 for a, b in zip(sa, sb)) and (
        max(sa[0], sb[0]),
        max(sa[1], sb[1]),
    ) in (sa, sb)


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to the input's shape."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True)


def _checked_ids(kernel, ids, limit: int, what: str) -> np.ndarray:
    """``ids`` as an index array; the first id outside [0, limit) raises."""
    ids = np.asarray(ids, dtype=np.intp).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        k = int(np.flatnonzero((ids < 0) | (ids >= limit))[0])
        raise IndexError(
            f"{kernel.value}: id {int(ids[k])} at position {k} out of range ({what})"
        )
    return ids


def _sigmoid(v):
    # exp may overflow to inf for very negative inputs; 1/inf -> 0 is fine
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def _lstm_forward(x, s0, w, b, reverse):
    """Rows [h_t | c_t] of an LSTM over the rows of ``x``, and its gates.

    Each step makes one (1 x (in + H)) product with each gate's stored
    weights ``w`` (i, f, o, g), as the per-step cell did: a product with all
    four gates stacked rounds differently when H is not a multiple of the
    BLAS kernel's block of outputs.  Returns the (n x 2H) states and the
    (n x 4H) activated gates [i | f | o | g].
    """
    n, hidden = x.shape[0], s0.shape[1] // 2
    dtype = np.result_type(x, s0, *w, *b)
    out = np.empty((n, 2 * hidden), dtype=dtype)
    gates = np.empty((n, 4 * hidden), dtype=dtype)
    h, c = s0[:, :hidden], s0[:, hidden:]
    b = np.concatenate(b, axis=1)
    for t in range(n - 1, -1, -1) if reverse else range(n):
        xh = np.concatenate([x[t : t + 1], h], axis=1)
        z = np.concatenate([xh @ w_k.T for w_k in w], axis=1) + b
        gate = gates[t : t + 1]
        gate[:, : 3 * hidden] = _sigmoid(z[:, : 3 * hidden])
        gate[:, 3 * hidden :] = np.tanh(z[:, 3 * hidden :])
        i, f, o, g = (gate[:, k * hidden : (k + 1) * hidden] for k in range(4))
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t : t + 1, :hidden] = h
        out[t : t + 1, hidden:] = c
    return out, gates


def _lstm_backward(x, s0, w, out, gates, reverse, grad):
    """Backpropagation through time for ``_lstm_forward``.

    The recurrence carries (dh, dc) from the last step read to the first;
    each step's gate adjoints land in one (n x 4H) array, so the input, weight
    and bias adjoints are one product or sum each.  The gate weights are
    stacked only here, for the input and per-step h products.  Returns the
    adjoints of x and s0, then each gate's weight and bias adjoint, a block
    of the stacked one.
    """
    n, d_in = x.shape
    hidden = s0.shape[1] // 2
    w = np.concatenate(w)
    # the state each row starts from: the row read just before it, or s0
    prev = np.concatenate([out[1:], s0]) if reverse else np.concatenate([s0, out[:-1]])
    i, f, o, g = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(out[:, hidden:])
    # d(gate pre-activation) per unit of dc (i, f, g) or dh (o), and dc per unit of dh
    k_i = g * i * (1 - i)
    k_f = prev[:, hidden:] * f * (1 - f)
    k_o = tanh_c * o * (1 - o)
    k_g = i * (1 - g * g)
    k_hc = o * (1 - tanh_c * tanh_c)
    w_h = w[:, d_in:]
    dz = np.empty_like(gates)
    dh_next = np.zeros(hidden, dtype=gates.dtype)
    dc_next = np.zeros(hidden, dtype=gates.dtype)
    for t in range(n) if reverse else range(n - 1, -1, -1):
        dh = grad[t, :hidden] + dh_next
        dc = grad[t, hidden:] + dc_next + dh * k_hc[t]
        dz[t, :hidden] = dc * k_i[t]
        dz[t, hidden : 2 * hidden] = dc * k_f[t]
        dz[t, 2 * hidden : 3 * hidden] = dh * k_o[t]
        dz[t, 3 * hidden :] = dc * k_g[t]
        dh_next = dz[t] @ w_h
        dc_next = dc * f[t]
    dw = np.empty_like(w)
    dw[:, :d_in] = dz.T @ x
    dw[:, d_in:] = dz.T @ prev[:, :hidden]
    ds0 = np.concatenate([dh_next, dc_next])[np.newaxis]
    db = dz.sum(axis=0, keepdims=True)
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
    return (dz @ w[:, :d_in], ds0, *(dw[k] for k in blocks), *(db[:, k] for k in blocks))


def _softmax(v):
    """Per row, with max subtraction for stability, formed in one new array."""
    out = v - v.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_backward(y, g):
    """y·(g − Σ g·y) per row, formed in ``g`` itself."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    g -= dot
    g *= y
    return g


def _score_tanh(features, query, bias, coverage, w_c):
    """tanh(features + query + coverageᵀ·w_c + bias) for one row, added left to right."""
    total = features + query
    if coverage is not None:
        total = total + coverage.T @ w_c
    return np.tanh(total + bias)


def _attention_backward(features, queries, v, bias, coverage, w_c, value, grad):
    """Adjoints of ``Tape.attention``'s inputs, in its input order, from its
    value and adjoint.  Each row's tanh is recomputed, used and dropped
    before the next row's.  Without coverage the rows are independent and
    run first to last.  With coverage the coverage before each row is
    rebuilt with the forward's adds, and the adjoint of the coverage after
    a row runs from the last row to the first: backpropagation through time
    over c_{r+1} = c_r + a_r, with the penalty's ties routed to a_r."""
    rows, n = queries.shape[0], features.shape[0]
    a = value[:, :n]
    d_features, d_queries, d_v = np.zeros_like(features), np.empty_like(queries), np.zeros_like(v)
    if coverage is None:
        d_scores, order = _softmax_backward(a, grad), range(rows)
    else:
        before = np.empty_like(a)
        for r in range(rows):
            before[r] = coverage
            coverage = coverage + a[r : r + 1]
        # d_c is the adjoint of the coverage after row r
        d_c, d_w_c = np.zeros_like(coverage), np.zeros_like(w_c)
        order = range(rows - 1, -1, -1)
    for r in order:
        if coverage is None:
            c, d_e = None, d_scores[r : r + 1]
        else:
            c = before[r : r + 1]
            take_a = a[r : r + 1] <= c
            d_a = grad[r : r + 1, :n] + d_c
            d_a += grad[r, n] * take_a
            d_c = d_c + grad[r, n] * ~take_a
            d_e = _softmax_backward(a[r : r + 1], d_a)
        y = _score_tanh(features, queries[r : r + 1], bias, c, w_c)
        d_v += d_e @ y
        d_pre = d_e.T * v
        d_pre *= 1 - y * y
        d_features += d_pre
        d_queries[r] = d_pre.sum(axis=0)
        if c is not None:
            d_c += (d_pre @ w_c.T).T
            d_w_c += c @ d_pre
    grads = [d_features, d_queries, d_v, d_queries.sum(axis=0, keepdims=True)]
    return grads if coverage is None else grads + [d_c, d_w_c]


def _copy_columns(a, ids: CopyIds):
    """The copy distribution's columns ``ids.cols``: column k of ``a`` added
    into column ``ids.inverse[k]``, in order, onto zeros."""
    out = np.zeros((a.shape[0], ids.cols.size), dtype=a.dtype)
    np.add.at(out, (slice(None), ids.inverse), a)
    return out


class Tape:
    """Append-only computation record.

    Nodes reference strictly earlier nodes, so evaluation happens at append
    time and backward is one reverse sweep.  A Parameter appears at most once
    per tape; repeated uses share the leaf node so gradients accumulate there.
    Adjoints are kept on leaves only: backward drops a computed node's grad
    as soon as it has been pushed to that node's inputs, and its value as
    soon as nothing is left to read it (before its own rule runs, unless
    that rule reads it).  So a tape runs backward once; read any
    intermediate value before calling it.  A leaf that only ``gather_rows``
    reads keeps a ``RowBlock`` adjoint, the rows it gathered, and a large
    parameter that only ``transpose_b`` matmuls read a ``FactoredGrad``;
    ``grad`` returns either dense.

    On a float32 tape a parameter leaf's value is the Parameter's own
    ``value`` array, not a copy, so a parameter must not be updated while a
    tape that still has to run backward reads it.  Float64 tapes (the
    finite-difference oracle's) copy.

    ``Tape(record=False)`` records nothing, for code that never runs
    backward (evaluation and decoding): a node handle is the value array
    itself, so ``value(x)`` is ``x`` and each intermediate is freed as soon
    as nothing refers to it.  The kernels compute the same values either
    way; ``backward`` raises, and ``len(tape)`` counts the nodes made.
    """

    def __init__(self, dtype=DEFAULT_DTYPE, record: bool = True):
        self.dtype = dtype
        self.record = record
        self.nodes: list[TapeNode] | NodeCount = [] if record else NodeCount()
        self._param_nodes: dict[int, tuple[int, Parameter]] = {}
        self._swept = False

    def __len__(self):
        return len(self.nodes)

    def value(self, nid) -> np.ndarray:
        return self.nodes[nid].value if self.record else nid

    def grad(self, nid: int) -> np.ndarray | None:
        """The node's adjoint, or None; a ``RowBlock`` or ``FactoredGrad`` is
        returned dense."""
        g = self.nodes[nid].grad
        return g.dense() if isinstance(g, (RowBlock, FactoredGrad)) else g

    # -- node constructors ------------------------------------------------

    def _append(self, kernel, input_ids, value, arg=None, needs_grad=None):
        """A new node's handle: its id, or on a tape that records nothing
        the value itself.  ``needs_grad`` defaults to any input's."""
        if not self.record:
            self.nodes.made += 1
            return value
        if needs_grad is None:
            needs_grad = any(self.nodes[i].needs_grad for i in input_ids)
        self.nodes.append(TapeNode(kernel, input_ids, value, needs_grad, arg))
        return len(self.nodes) - 1

    def leaf(self, array, needs_grad=False) -> int:
        value = np.ascontiguousarray(np.atleast_2d(np.asarray(array, dtype=self.dtype)))
        return self._append(Kernel.LEAF, (), value, needs_grad=needs_grad)

    def param(self, p: Parameter) -> int:
        """Leaf node for a Parameter, shared across uses on this tape."""
        entry = self._param_nodes.get(id(p))
        if entry is not None:
            return entry[0]
        nid = self.leaf(p.value, needs_grad=True)  # no copy when dtypes match
        if self.record:
            self.nodes[nid].arg = p
        self._param_nodes[id(p)] = (nid, p)
        return nid

    def matmul(self, a: int, b: int, transpose_b: bool = False, per_row: bool = False) -> int:
        """``a @ b``, or ``a @ b.T`` with ``transpose_b`` (no transposed copy).

        With ``per_row`` the forward makes one product per row of ``a``, so
        each row rounds as a one-row product does; a stacked product may
        round differently.  Backward is the same either way.
        """
        va, vb = self.value(a), self.value(b)
        if transpose_b:
            vb = vb.T
        if va.shape[1] != vb.shape[0]:
            raise DimensionError(f"matmul: inner dims differ: {va.shape} x {vb.shape}")
        if per_row and va.shape[0] > 1:
            value = np.empty((va.shape[0], vb.shape[1]), dtype=np.result_type(va, vb))
            for r in range(va.shape[0]):
                value[r] = va[r : r + 1] @ vb
        else:
            value = va @ vb
        return self._append(Kernel.MATMUL, (a, b), value, bool(transpose_b))

    def _elementwise_binary(self, kernel, a, b, op):
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape and not _bcast_ok(va.shape, vb.shape):
            raise DimensionError(f"{kernel.value}: incompatible dims {va.shape} vs {vb.shape}")
        return self._append(kernel, (a, b), op(va, vb))

    def add(self, a: int, b: int) -> int:
        return self._elementwise_binary(Kernel.ADD, a, b, np.add)

    def concat(self, ids, axis: int = 1) -> int:
        """Join nodes along ``axis``; a single node is returned as it is."""
        if axis not in (0, 1):
            raise DimensionError(f"concat: axis must be 0 or 1, got {axis}")
        if len(ids) == 1:
            return ids[0]
        vals = [self.value(i) for i in ids]
        other = 1 - axis
        base = vals[0].shape[other]
        for v in vals[1:]:
            if v.shape[other] != base:
                raise DimensionError(
                    f"concat: mismatched dims along axis {other}: "
                    f"{[v.shape for v in vals]}"
                )
        return self._append(Kernel.CONCAT, tuple(ids), np.concatenate(vals, axis=axis), axis)

    def _unary(self, kernel, a, op):
        return self._append(kernel, (a,), op(self.value(a)))

    def tanh(self, a: int) -> int:
        return self._unary(Kernel.TANH, a, np.tanh)

    def sigmoid(self, a: int) -> int:
        return self._unary(Kernel.SIGMOID, a, _sigmoid)

    def softmax(self, a: int) -> int:
        return self._unary(Kernel.SOFTMAX, a, _softmax)

    def scale(self, a: int, factor: float) -> int:
        value = (self.value(a) * self.dtype(factor)).astype(self.dtype)
        return self._append(Kernel.SCALE, (a,), value, float(factor))

    def gather_rows(self, a: int, ids) -> int:
        """Rows ``ids`` of ``a``, in order; repeated ids are allowed."""
        va = self.value(a)
        ids = _checked_ids(Kernel.GATHER_ROWS, ids, va.shape[0], f"{va.shape[0]} rows")
        return self._append(Kernel.GATHER_ROWS, (a,), va[ids], ids)

    def slice(self, a: int, rows=None, cols=None) -> int:
        """The block of ``a`` at rows ``rows`` and columns ``cols``, each a
        ``(start, stop)`` pair inside ``a`` or None for all of them."""
        va = self.value(a)
        block = []
        for pair, size in ((rows, va.shape[0]), (cols, va.shape[1])):
            if pair is None:
                pair = (0, size)
            if not 0 <= pair[0] < pair[1] <= size:
                raise DimensionError(f"slice: {pair} outside {va.shape}")
            block.append(slice(*pair))
        block = tuple(block)
        # a copy even when the block is contiguous: no computed value shares a leaf's memory
        return self._append(Kernel.SLICE, (a,), va[block].copy(), block)

    def copy_mix(self, p_gen: int, p_vocab: int, a: int, ids: CopyIds) -> int:
        """The pointer-generator mix ``p_vocab·p_gen + copy·(1 − p_gen)`` over
        ``ids.width`` columns, one row per step.

        ``p_vocab`` (T x V) fills the first V columns, ``copy`` adds column k
        of the attention ``a`` (T x n) into column ``ids.ids[k]``, and
        ``p_gen`` (T x 1) lies in [0, 1].  Only the result is stored, and
        backward reads the n source columns, never a (T x width) replica:
        the p_gen adjoint is the generated mass less the copied mass, per row,
        ``Σ_v g_v·p_vocab_v − Σ_i g[ids_i]·a_i``.
        """
        vg, vv, va = (self.value(i) for i in (p_gen, p_vocab, a))
        rows, vocab = vv.shape
        if vg.shape != (rows, 1) or va.shape != (rows, ids.ids.size) or ids.width < vocab:
            raise DimensionError(
                f"copy-mix: p_gen {vg.shape}, p_vocab {vv.shape} and attention {va.shape} "
                f"do not fit {ids.ids.size} ids of width {ids.width}"
            )
        out = np.zeros((rows, ids.width), dtype=np.result_type(vv, vg, va))
        np.multiply(vv, vg, out=out[:, :vocab])
        out[:, ids.cols] += _copy_columns(va, ids) * (1 - vg)
        return self._append(Kernel.COPY_MIX, (p_gen, p_vocab, a), out, ids)

    def reduce_mean(self, a: int) -> int:
        value = np.array([[self.value(a).mean(dtype=np.float64)]], dtype=self.dtype)
        return self._append(Kernel.REDUCE_MEAN, (a,), value)

    def neg_log_pick(self, a: int, ids) -> int:
        """``-log(a[r, ids[r]])`` for each row r, as a (rows x 1) column.

        ``ids`` holds one column index per row; a single int picks from a
        1-row input.  An index outside the row raises DimensionError naming
        the row.
        """
        va = self.value(a)
        rows, cols = va.shape
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.size != rows:
            raise DimensionError(f"neg-log-pick: {ids.size} indices for {rows} rows")
        bad = np.flatnonzero((ids < 0) | (ids >= cols))
        if bad.size:
            r = int(bad[0])
            raise DimensionError(
                f"neg-log-pick: index {int(ids[r])} at row {r} out of range for {va.shape}"
            )
        picked = va[np.arange(rows), ids].astype(np.float64) + LOG_PICK_EPS
        # math.log, not np.log: the vectorised float64 log may differ in the last bit
        value = np.array([[-math.log(p)] for p in picked.tolist()], dtype=self.dtype)
        return self._append(Kernel.NEG_LOG_PICK, (a,), value, ids)

    def lstm(self, xs: int, s0: int, w, b, reverse: bool = False) -> int:
        """An LSTM over the rows of ``xs`` (n x in), from the state row
        ``s0 = [h0 | c0]`` (1 x 2H).

        ``w`` is the four gates' (H x (in + H)) weight nodes and ``b`` their
        (1 x H) bias nodes, each in the order i, f, o, g.  Row t of the
        (n x 2H) value is [h_t | c_t], the state after reading row t; with
        ``reverse`` the rows are read last to first.  The activated gates
        are kept for backward, which runs backpropagation through time with
        one weight product per sequence.
        """
        vx, vs, *vwb = (self.value(i) for i in (xs, s0, *w, *b))
        hidden = vs.shape[1] // 2
        shapes = [v.shape for v in vwb]
        if (vx.shape[0] < 1 or vs.shape != (1, 2 * hidden)
                or shapes != [(hidden, vx.shape[1] + hidden)] * 4 + [(1, hidden)] * 4):
            raise DimensionError(
                f"lstm: inputs {vx.shape}, state {vs.shape}, gate weights and biases "
                f"{shapes} do not fit"
            )
        out, gates = _lstm_forward(vx, vs, vwb[:4], vwb[4:], reverse)
        return self._append(Kernel.LSTM, (xs, s0, *w, *b), out, (reverse, gates))

    def attention(self, features: int, queries: int, v: int, bias: int,
                  coverage: int | None = None, w_c: int | None = None) -> int:
        """Attention weights of R query rows over n positions, (R x n).

        Row r is ``softmax(tanh(features + queries[r] + c_rᵀ·w_c + bias)·vᵀ)``,
        added left to right, the coverage term only with ``coverage``.
        ``features`` is (n x attn), ``queries`` (R x attn), ``v``, ``bias``
        and ``w_c`` (1 x attn), and ``coverage`` (1 x n) is c_0, the
        coverage before row 0.  With it the rows run as one chain: row r
        reads c_r, its penalty is Σ min(a_r, c_r), and c_{r+1} = c_r + a_r;
        the value is then (R x (n + 1)), the penalties in column n.  Each
        row is scored with one-row products, as a one-row call would be;
        only the value is stored, and backward recomputes each row's tanh and
        coverage, so no (n x attn) array outlives its row.
        """
        ids = (features, queries, v, bias) + (() if coverage is None else (coverage, w_c))
        vf, vq, vv, vbias, *rest = (self.value(i) for i in ids)
        vc, vw = rest or (None, None)
        rows, (n, attn) = vq.shape[0], vf.shape
        if (vq.shape[1] != attn or vv.shape != (1, attn) or vbias.shape != (1, attn)
                or (vc is not None and (vc.shape != (1, n) or vw.shape != (1, attn)))):
            cov = "" if vc is None else f", coverage {vc.shape}, w_c {vw.shape}"
            raise DimensionError(f"attention: features {vf.shape}, queries {vq.shape}, "
                                 f"v {vv.shape}, bias {vbias.shape}{cov} do not fit")
        out = np.empty((rows, n + (vc is not None)), dtype=np.result_type(vf, vq))
        for r in range(rows):
            out[r, :n] = (_score_tanh(vf, vq[r : r + 1], vbias, vc, vw) @ vv.T)[:, 0]
            if vc is not None:
                a = _softmax(out[r : r + 1, :n])
                out[r, :n], out[r, n] = a, np.minimum(a, vc).sum(dtype=np.float64)
                vc = vc + a
        value = _softmax(out) if coverage is None else out
        return self._append(Kernel.ATTENTION, ids, value)

    # -- backward ----------------------------------------------------------

    def backward(self, loss: int):
        """Fill the gradients of the leaves (and Parameters) the loss depends on.

        The sweep releases what it has used: a computed node's adjoint once it
        has been pushed to the node's inputs, and its value as the sweep
        reaches it (every other reader of a value comes later on the tape),
        before its rule runs unless the rule reads it (``tanh``,
        ``sigmoid``, ``softmax``, ``lstm`` and ``attention``).  After
        backward only leaves hold a ``grad``, and only leaves and the loss
        node hold a ``value``; the tape cannot run backward again.  A leaf
        adjoint may be a ``RowBlock``: while only ``gather_rows`` has added
        into a leaf, its adjoint holds just the gathered rows.  It may be a
        ``FactoredGrad``, the (adjoint, input) pairs of the ``transpose_b``
        matmuls that read a large parameter, so the output weights' (V x H)
        adjoint is never made.  Either is filled out to a dense array if
        another kernel adds in.  A Parameter holding no
        grad takes a float32 leaf adjoint as it is, so the leaf and the
        Parameter then share it; otherwise the adjoint is added into the
        Parameter's dense grad.
        """
        if not self.record:
            raise ValueError("backward: this tape records nothing")
        root = self.nodes[loss]
        if root.value.size != 1:
            raise DimensionError(
                f"backward: loss must be scalar, got dims {root.value.shape}"
            )
        if not root.needs_grad:
            return  # loss independent of all parameters: grads stay zero
        if self._swept:
            raise ValueError("backward: this tape has already run backward")
        self._swept = True
        root.grad = np.ones_like(root.value)
        for nid in range(loss, -1, -1):
            node = self.nodes[nid]
            if node.kernel is Kernel.LEAF:
                if isinstance(node.grad, list):  # every reader has added in
                    node.grad = _gathered_rows(node.grad, node.value)
                continue
            if nid != loss and node.kernel not in READS_OWN_VALUE:
                node.value = None  # read only by later nodes, whose rules have run
            if node.grad is not None:
                self._accumulate_input_grads(node, node.grad)
                node.grad = None  # nothing reads a pushed adjoint again
            if nid != loss:
                node.value = None
                node.arg = None  # the LSTM's gates among them
        for nid, p in self._param_nodes.values():
            g = self.nodes[nid].grad
            if g is None or g is p._grad:
                continue
            if p._grad is None and g.dtype == np.float32:
                p._grad = g
            else:
                if not isinstance(g, np.ndarray):
                    g = g.dense()
                np.add(p.grad, g.astype(np.float32, copy=False), out=p._grad)

    def _add_grad(self, nid: int, g, view: bool = False):
        """Accumulate adjoint ``g`` into node ``nid``.  A first adjoint is
        kept as it is, so ``view`` must be set when ``g`` may share memory
        with another node's grad (add and concat pass views)."""
        node = self.nodes[nid]
        if not node.needs_grad:
            return
        if node.grad is None:
            node.grad = g.copy() if view else g
        else:
            self._dense_grad(node)
            node.grad += g

    def _add_weight_grad(self, nid: int, g: np.ndarray, a: int):
        """Accumulate gᵀ·a, the adjoint of a ``transpose_b`` matmul's weight,
        into node ``nid``.  A parameter leaf of at least ``SUM_CHUNK``
        elements keeps it as a ``FactoredGrad`` while the pairs hold fewer
        elements than the weight and ``a`` is computed (Adagrad writes
        parameter values in place); otherwise it is filled out dense."""
        node, va = self.nodes[nid], self.nodes[a].value
        if not node.needs_grad:
            return
        factored = node.grad is None or isinstance(node.grad, FactoredGrad)
        if (factored and isinstance(node.arg, Parameter) and node.value.size >= SUM_CHUNK
                and self.nodes[a].kernel is not Kernel.LEAF):
            if node.grad is None:
                node.grad = FactoredGrad(g, va)
            else:
                node.grad.pairs.append((g, va))
            if node.grad.held < node.value.size:
                return
            node.grad = node.grad.dense()
        else:
            self._add_grad(nid, g.T @ va)

    @staticmethod
    def _dense_grad(node: TapeNode) -> np.ndarray:
        """The node's adjoint as a dense array it keeps: zeros when it has
        none yet, and a leaf's gathered rows or factored adjoint filled out
        once another kernel adds in too."""
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        elif isinstance(node.grad, FactoredGrad):
            node.grad = node.grad.dense()
        elif isinstance(node.grad, list):
            pairs, node.grad = node.grad, np.zeros_like(node.value)
            for ids, g in pairs:
                np.add.at(node.grad, ids, g)
        return node.grad

    def _accumulate_input_grads(self, node: TapeNode, g: np.ndarray):
        k = node.kernel
        ids = node.input_ids
        if k is Kernel.MATMUL:
            a, b = ids
            va, vb = self.nodes[a].value, self.nodes[b].value
            if self.nodes[a].needs_grad:
                self._add_grad(a, g @ vb if node.arg else g @ vb.T)
            if node.arg:
                self._add_weight_grad(b, g, a)
            elif self.nodes[b].needs_grad:
                self._add_grad(b, va.T @ g)
        elif k is Kernel.ADD:
            for i in ids:
                self._add_grad(i, _unbroadcast(g, self.nodes[i].value.shape), view=True)
        elif k is Kernel.CONCAT:
            axis = node.arg
            offset = 0
            for i in ids:
                size = self.nodes[i].value.shape[axis]
                sl = (
                    (slice(offset, offset + size), slice(None))
                    if axis == 0
                    else (slice(None), slice(offset, offset + size))
                )
                self._add_grad(i, g[sl], view=True)
                offset += size
        elif k is Kernel.TANH:
            self._add_grad(ids[0], g * (1.0 - node.value * node.value))
        elif k is Kernel.SIGMOID:
            self._add_grad(ids[0], g * node.value * (1.0 - node.value))
        elif k is Kernel.SOFTMAX:
            # formed in g itself, which nothing reads after this rule
            self._add_grad(ids[0], _softmax_backward(node.value, g))
        elif k is Kernel.NEG_LOG_PICK:
            src = self.nodes[ids[0]]
            if src.needs_grad:
                rows = np.arange(src.value.shape[0])
                gi = np.zeros_like(src.value)
                gi[rows, node.arg] = -g[:, 0].astype(np.float64) / (
                    src.value[rows, node.arg].astype(np.float64) + LOG_PICK_EPS
                )
                self._add_grad(ids[0], gi)
        elif k is Kernel.REDUCE_MEAN:
            src = self.nodes[ids[0]]
            self._add_grad(
                ids[0], np.full_like(src.value, float(g[0, 0]) / src.value.size)
            )
        elif k is Kernel.SCALE:
            self._add_grad(ids[0], g * self.dtype(node.arg))
        elif k is Kernel.GATHER_ROWS:
            src = self.nodes[ids[0]]
            if not src.needs_grad:
                pass
            elif src.kernel is Kernel.LEAF and (src.grad is None or isinstance(src.grad, list)):
                if src.grad is None:
                    src.grad = []
                src.grad.append((node.arg, g))
            else:
                np.add.at(self._dense_grad(src), node.arg, g)
        elif k is Kernel.SLICE:
            src = self.nodes[ids[0]]
            if src.needs_grad:
                self._dense_grad(src)[node.arg] += g
        elif k is Kernel.LSTM:
            reverse, gates = node.arg
            xs, s0, *w = (self.nodes[i].value for i in ids)
            for i, gi in zip(ids, _lstm_backward(xs, s0, w[:4], node.value, gates, reverse, g)):
                self._add_grad(i, gi)
        elif k is Kernel.ATTENTION:
            values = [self.nodes[i].value for i in ids]
            if len(values) == 4:  # no coverage
                values += [None, None]
            for i, gi in zip(ids, _attention_backward(*values, node.value, g)):
                self._add_grad(i, gi)
        elif k is Kernel.COPY_MIX:
            p_gen, p_vocab, a = (self.nodes[i] for i in ids)
            g_vocab = g[:, : p_vocab.value.shape[1]]
            if p_vocab.needs_grad:
                self._add_grad(ids[1], g_vocab * p_gen.value)
            g_copy = g[:, node.arg.ids]
            if p_gen.needs_grad:
                generated = np.einsum("ij,ij->i", g_vocab, p_vocab.value)
                copied = np.einsum("ij,ij->i", g_copy, a.value)
                self._add_grad(ids[0], (generated - copied)[:, None])
            if a.needs_grad:
                self._add_grad(ids[2], np.multiply(g_copy, 1 - p_gen.value, out=g_copy))
        else:
            raise ValueError(f"no backward rule for kernel {k}")


def zero_grads(params):
    for p in params:
        p.zero_grad()


SUM_CHUNK = 1 << 16


def _pairwise_sum_of_squares(chunk_of, start: int, n: int) -> float:
    # numpy's float64 sum is a pairwise tree that splits n elements at
    # n//2 rounded down to a multiple of 8.  Splitting at the same points
    # makes each chunk's sum a subtree of that tree, so the result is
    # byte-identical to squaring one float64 copy of the whole grad.
    # ``chunk_of(start, n)`` gives each chunk as a new float64 array, squared
    # here in place (a casting ufunc would add its own 64 KiB buffer), or
    # None for a chunk of zeros, which adds exactly 0.0.
    if n <= SUM_CHUNK:
        chunk = chunk_of(start, n)
        return 0.0 if chunk is None else float(np.square(chunk, out=chunk).sum())
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum_of_squares(chunk_of, start, n2) + _pairwise_sum_of_squares(
        chunk_of, start + n2, n - n2
    )


def _sum_of_squares(g) -> float:
    """Float64 sum of squares in memory order, with one float64 chunk of at
    most SUM_CHUNK elements alive at a time.  A ``RowBlock`` or
    ``FactoredGrad`` sums as its dense adjoint would, from the chunks it
    forms."""
    if isinstance(g, (RowBlock, FactoredGrad)):
        return _pairwise_sum_of_squares(g.flat_chunk, 0, g.shape[0] * g.shape[1])
    flat = g.ravel(order="K")  # a view for C- and F-ordered grads
    return _pairwise_sum_of_squares(
        lambda start, n: flat[start : start + n].astype(np.float64), 0, flat.size)


def global_grad_norm(params) -> float:
    """L2 norm over all grads, accumulated in float64.

    Raises NonFiniteError naming the first parameter whose grad holds a NaN
    or an inf; a parameter that holds no grad adds nothing.
    """
    sums = [_sum_of_squares(p._grad) if p._grad is not None else 0.0 for p in params]
    total = 0.0
    for s in sums:  # left to right; sum() compensates on Python >= 3.12
        total += s
    if not math.isfinite(total):
        bad = [p.name for p, s in zip(params, sums) if not math.isfinite(s)]
        raise NonFiniteError(f"non-finite gradient in parameter {bad[0]!r}")
    return math.sqrt(total)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most max_norm.

    Returns the applied factor (1.0 when no clipping happened, including the
    all-zero case).  Idempotent: a second application is a no-op.  A
    ``FactoredGrad`` records the float32 factor instead.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(params)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in params:
        g = p._grad
        if isinstance(g, FactoredGrad):
            g.scales += (np.float32(factor),)
        elif g is not None:
            scaled = g.block if isinstance(g, RowBlock) else g
            scaled *= np.float32(factor)
    return factor


def _adagrad_update(g, acc, lr, eps):
    """acc += g²; g becomes lr·g / (sqrt(acc) + eps), the step; both in place."""
    tmp = np.multiply(g, g)
    acc += tmp
    g *= lr
    np.sqrt(acc, out=tmp)
    tmp += eps
    g /= tmp


def _acc_rows(p: Parameter, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where ``p``'s accumulator keeps ``rows`` (sorted, distinct): the dense
    accumulator and ``rows`` itself, or a row state's block and the rows'
    positions in it.  A parameter with no dense accumulator gets or grows
    its row state, new rows at ``ADAGRAD_INIT_ACC``.  A row state that would
    hold more than half the rows is filled out dense instead: growing it
    past that would hold old and new blocks larger than the dense array, and
    copy that much on every step that adds a row."""
    state = p._acc
    if isinstance(state, np.ndarray):
        return state, rows
    if state is None:
        state = RowBlock(rows[:0], np.empty((0, p.shape[1]), dtype=np.float32), p.shape)
    held = state.rows.size
    merged, inverse = _distinct(np.concatenate([state.rows, rows]))
    if 2 * merged.size > p.shape[0]:
        return p.adagrad_acc, rows
    if merged.size > held:
        block = np.full((merged.size, p.shape[1]), ADAGRAD_INIT_ACC, dtype=np.float32)
        block[inverse[:held]] = state.block
        state = RowBlock(merged, block, p.shape)
    p._acc = state
    return state.block, inverse[held:]


def adagrad_step(params, lr: float):
    """acc += g^2; value -= lr * g / (sqrt(acc) + eps); grads are then released.

    Runs in place, SUM_CHUNK elements at a time: the grad is overwritten
    with the step, and the only temporary is one float32 chunk, so no
    parameter-sized array is made while the grads are alive.  A parameter
    holding no grad has a zero step and is left as it is, and so are the
    rows a ``RowBlock`` grad does not hold.  A ``RowBlock`` grad on a
    parameter with no dense accumulator updates its row state (see
    ``Parameter``), grown by the rows it did not hold yet, and filled out
    dense once it would hold more than half the rows; a dense grad fills
    the row state out first.  A ``FactoredGrad`` forms each chunk as it
    is reached.
    """
    lr, eps = np.float32(lr), np.float32(ADAGRAD_EPS)
    for p in params:
        g = p._grad
        if g is None:
            continue
        if isinstance(g, RowBlock):
            store, at = _acc_rows(p, g.rows)
            acc = store[at]
            _adagrad_update(g.block, acc, lr, eps)
            store[at] = acc
            p.value[g.rows] -= g.block
            p.zero_grad()
            continue
        # C order for all three, whatever the grad's layout: reshape copies
        # a grad that is not C-contiguous, and the step is then made on that copy.
        flat_acc, flat_value = (a.reshape(-1) for a in (p.adagrad_acc, p.value))
        flat_g = None if isinstance(g, FactoredGrad) else g.reshape(-1)
        for start in range(0, flat_value.size, SUM_CHUNK):
            chunk = slice(start, start + SUM_CHUNK)
            if flat_g is None:
                gc = g.flat_chunk(start, min(SUM_CHUNK, flat_value.size - start), np.float32)
            else:
                gc = flat_g[chunk]
            _adagrad_update(gc, flat_acc[chunk], lr, eps)
            flat_value[chunk] -= gc
        p.zero_grad()


def optimizer_step(build, params, lr: float, clip_norm: float | None = None) -> float:
    """One training update: ``build(tape)`` returns the loss node on a new
    ``Tape``; then backward, clip to ``clip_norm`` (None: only check) and
    Adagrad.  Returns the loss.

    Every dense Adagrad accumulator a parameter lacks is made before the
    tape, so the optimizer's long-lived state sits below the step's
    temporaries and their space can be reused by the next step; a
    ``row_sparse`` parameter's row state is left to ``adagrad_step``, which
    makes only the rows the step gathered.  A non-finite loss (before
    backward) or grad (naming the parameter) raises NonFiniteError; that, or
    any exception from ``build``, releases every grad and drops the
    accumulators this call made, so no value or accumulator changes."""
    made = [p for p in params if p._acc is None and not p.row_sparse]
    for p in made:
        p._acc = np.full_like(p.value, ADAGRAD_INIT_ACC)
    try:
        tape = Tape()
        loss = build(tape)
        value = float(tape.value(loss)[0, 0])
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite loss {value}")
        tape.backward(loss)
        if clip_norm is None:
            global_grad_norm(params)
        else:
            clip_global_norm(params, clip_norm)
    except BaseException:
        zero_grads(params)  # leave no half-made step behind
        for p in made:
            p._acc = None
        raise
    adagrad_step(params, lr)
    return value


def batch_order(rng: np.random.Generator, n: int, batch_size: int):
    """Minibatch index arrays without end: each pass over ``n`` examples draws
    one ``rng.permutation(n)`` as its first batch is taken, then slices it."""
    if n < 1 or batch_size < 1:
        raise ValueError(f"batch_order: needs examples and batch_size >= 1, got {n}, {batch_size}")
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def train_steps(step, n: int, batch_size: int, seed: int, steps: int, what: str) -> list[float]:
    """``step(k, idx)`` on each of the first ``steps`` batches ``idx`` of
    ``batch_order(default_rng(seed), n, batch_size)``; returns its losses in
    order.  A NonFiniteError at step k is re-raised as ``"{what} step {k}: ..."``
    and no later step runs."""
    batches = batch_order(np.random.default_rng(seed), n, batch_size)
    losses: list[float] = []
    for k, idx in enumerate(itertools.islice(batches, steps)):
        try:
            losses.append(step(k, idx))
        except NonFiniteError as exc:
            raise NonFiniteError(f"{what} step {k}: {exc}") from exc
    return losses


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    ok: bool
    failures: list = field(default_factory=list)

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        return (
            f"grad check {status}: max_rel_err={self.max_rel_err:.3e} "
            f"(worst: {self.worst_param})"
        )


def finite_diff_check(build, params, h: float = 1e-3, tol: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build(dtype)`` must return ``(tape, loss_node_id)``, a fresh tape from
    the current parameter values; it is called many times, so it must be
    deterministic.  All differencing runs in float64; grads are left as found.
    """
    if h <= 0:
        raise ValueError("h must be positive")

    def loss_value():
        tape, loss = build(np.float64)
        return float(tape.value(loss)[0, 0])

    tape, loss = build(np.float64)
    if tape.value(loss).size != 1:
        raise DimensionError("finite_diff_check: loss must be scalar")
    found = [(nid, p, p._grad) for nid, p in tape._param_nodes.values()]
    zero_grads(p for _, p, _ in found)  # backward would add into the grads it finds
    tape.backward(loss)
    analytic = {}
    for nid, p, held in found:
        p._grad = held
        g = tape.grad(nid)
        analytic[p.name] = g.copy() if g is not None else np.zeros_like(tape.value(nid))

    max_rel = 0.0
    worst = ""
    failures = []
    for p in params:
        flat_value = p.value.reshape(-1)
        flat_grad = analytic.get(p.name, np.zeros(p.value.shape)).reshape(-1)
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + h
            x_plus = float(flat_value[i])  # float32 rounds the perturbation
            f_plus = loss_value()
            flat_value[i] = orig - h
            x_minus = float(flat_value[i])
            f_minus = loss_value()
            flat_value[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                failures.append(f"non-finite evaluation at {p.name}[{i}]")
                continue
            if x_plus == x_minus:
                failures.append(f"step h={h} vanishes at {p.name}[{i}]")
                continue
            numeric = (f_plus - f_minus) / (x_plus - x_minus)
            a = float(flat_grad[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
                worst = f"{p.name}[{i}]"
    ok = max_rel <= tol and not failures
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst, ok=ok, failures=failures)
