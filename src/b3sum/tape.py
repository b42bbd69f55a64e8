"""A reverse-mode autodiff tape over dense matrices, the optimizer step, and gradient checking.

Everything downstream (LSTM layers, the attention decoder, the classifier)
is expressed as a sequence of a small set of kernels appended to a Tape.
Values are float32 by default; reductions and the finite-difference oracle
accumulate in float64.

All tensors handled by the kernels are 2-D matrices: "vectors" are 1-row
matrices and scalars are 1x1.  The tape is topologically ordered by
construction, so backward is a single reverse sweep.
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

    LEAF marks tape inputs (constants and parameters); TRANSPOSE exists so
    both row and column orientations of attention/coverage vectors can be
    formed without general broadcasting.  GATHER_ROWS and SCATTER_ADD move
    rows and columns by integer id, so lookups and the copy distribution
    need no one-hot constant.  TANH_SUM is tanh of a left-to-right sum that
    stores only the tanh, so attention keeps one (n x attn) array per step.
    """

    LEAF = "leaf"
    MATMUL = "matmul"
    ADD = "add"
    MUL = "mul"
    CONCAT = "concat"
    TANH = "tanh"
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"
    LOG = "log"
    NEG_LOG_PICK = "neg-log-pick"
    REDUCE_SUM = "reduce-sum"
    REDUCE_MEAN = "reduce-mean"
    ELEMENTWISE_MIN = "elementwise-min"
    SCALE = "scale"
    GATHER_ROWS = "gather-rows"
    SCATTER_ADD = "scatter-add"
    TRANSPOSE = "transpose"
    TANH_SUM = "tanh-sum"


class TapeNode:
    __slots__ = ("kernel", "input_ids", "value", "grad", "needs_grad", "arg")

    def __init__(self, kernel, input_ids, value, needs_grad, arg=None):
        self.kernel = kernel
        self.input_ids = input_ids
        self.value = value
        self.grad = None
        self.needs_grad = needs_grad
        self.arg = arg  # kernel-specific: axis, pick or row ids, scale factor or flag


class Parameter:
    """A named trainable tensor with gradient and Adagrad accumulator state.

    ``grad`` (zeros) and ``adagrad_acc`` (``ADAGRAD_INIT_ACC``) are created
    on first use, so a model that only evaluates or decodes holds just its
    values.
    ``zero_grad`` releases the grad; the next read of ``grad`` sees zeros.
    """

    __slots__ = ("name", "value", "_grad", "_acc")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float32)
        if self.value.ndim != 2:
            self.value = np.atleast_2d(self.value)
        if not np.all(np.isfinite(self.value)):
            raise ValueError(f"parameter {name!r} has non-finite values")
        self._grad = None
        self._acc = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @property
    def adagrad_acc(self) -> np.ndarray:
        if self._acc is None:
            self._acc = np.full_like(self.value, ADAGRAD_INIT_ACC)
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


class Tape:
    """Append-only computation record.

    Nodes reference strictly earlier nodes, so evaluation happens at append
    time and backward is one reverse sweep.  A Parameter appears at most once
    per tape; repeated uses share the leaf node so gradients accumulate there.
    Adjoints are kept on leaves only: backward drops a computed node's grad
    as soon as it has been pushed to that node's inputs, and its value as
    soon as the sweep has passed it.  So a tape runs backward once; read any
    intermediate value before calling it.

    On a float32 tape a parameter leaf's value is the Parameter's own
    ``value`` array, not a copy, so a parameter must not be updated while a
    tape that still has to run backward reads it.  Float64 tapes (the
    finite-difference oracle's) copy.
    """

    def __init__(self, dtype=DEFAULT_DTYPE):
        self.dtype = dtype
        self.nodes: list[TapeNode] = []
        self._param_nodes: dict[int, tuple[int, Parameter]] = {}
        self._swept = False

    def __len__(self):
        return len(self.nodes)

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def grad(self, nid: int) -> np.ndarray | None:
        return self.nodes[nid].grad

    # -- node constructors ------------------------------------------------

    def _append(self, kernel, input_ids, value, needs_grad, arg=None) -> int:
        self.nodes.append(TapeNode(kernel, input_ids, value, needs_grad, arg))
        return len(self.nodes) - 1

    def leaf(self, array, needs_grad=False) -> int:
        value = np.ascontiguousarray(np.atleast_2d(np.asarray(array, dtype=self.dtype)))
        return self._append(Kernel.LEAF, (), value, needs_grad)

    def param(self, p: Parameter) -> int:
        """Leaf node for a Parameter, shared across uses on this tape."""
        entry = self._param_nodes.get(id(p))
        if entry is not None:
            return entry[0]
        nid = self.leaf(p.value, needs_grad=True)  # no copy when dtypes match
        self._param_nodes[id(p)] = (nid, p)
        return nid

    def matmul(self, a: int, b: int, transpose_b: bool = False) -> int:
        """``a @ b``, or ``a @ b.T`` with ``transpose_b`` (no transposed copy)."""
        va, vb = self.nodes[a].value, self.nodes[b].value
        if transpose_b:
            vb = vb.T
        if va.shape[1] != vb.shape[0]:
            raise DimensionError(f"matmul: inner dims differ: {va.shape} x {vb.shape}")
        ng = self.nodes[a].needs_grad or self.nodes[b].needs_grad
        return self._append(Kernel.MATMUL, (a, b), va @ vb, ng, bool(transpose_b))

    def _elementwise_binary(self, kernel, a, b, op):
        na, nb = self.nodes[a], self.nodes[b]
        va, vb = na.value, nb.value
        if va.shape != vb.shape:
            if kernel is Kernel.ELEMENTWISE_MIN:
                raise DimensionError(
                    f"{kernel.value}: dims must match: {va.shape} vs {vb.shape}"
                )
            if not _bcast_ok(va.shape, vb.shape):
                raise DimensionError(
                    f"{kernel.value}: incompatible dims {va.shape} vs {vb.shape}"
                )
        return self._append(kernel, (a, b), op(va, vb), na.needs_grad or nb.needs_grad)

    def add(self, a: int, b: int) -> int:
        return self._elementwise_binary(Kernel.ADD, a, b, np.add)

    def mul(self, a: int, b: int) -> int:
        return self._elementwise_binary(Kernel.MUL, a, b, np.multiply)

    def elementwise_min(self, a: int, b: int) -> int:
        return self._elementwise_binary(Kernel.ELEMENTWISE_MIN, a, b, np.minimum)

    def concat(self, ids, axis: int = 1) -> int:
        """Join nodes along ``axis``; a single node is returned as it is."""
        if axis not in (0, 1):
            raise DimensionError(f"concat: axis must be 0 or 1, got {axis}")
        if len(ids) == 1:
            return ids[0]
        vals = [self.nodes[i].value for i in ids]
        other = 1 - axis
        base = vals[0].shape[other]
        for v in vals[1:]:
            if v.shape[other] != base:
                raise DimensionError(
                    f"concat: mismatched dims along axis {other}: "
                    f"{[v.shape for v in vals]}"
                )
        ng = any(self.nodes[i].needs_grad for i in ids)
        return self._append(Kernel.CONCAT, tuple(ids), np.concatenate(vals, axis=axis), ng, axis)

    def _unary(self, kernel, a, op):
        node = self.nodes[a]
        return self._append(kernel, (a,), op(node.value), node.needs_grad)

    def tanh(self, a: int) -> int:
        return self._unary(Kernel.TANH, a, np.tanh)

    def tanh_sum(self, ids) -> int:
        """``tanh(ids[0] + ids[1] + ...)``, added left to right with ``add``'s
        broadcasting; only the tanh is stored, not the partial sums."""
        total = self.nodes[ids[0]].value
        for i in ids[1:]:
            v = self.nodes[i].value
            if not _bcast_ok(total.shape, v.shape):
                raise DimensionError(f"tanh-sum: incompatible dims {total.shape} vs {v.shape}")
            total = total + v
        ng = any(self.nodes[i].needs_grad for i in ids)
        return self._append(Kernel.TANH_SUM, tuple(ids), np.tanh(total), ng)

    def sigmoid(self, a: int) -> int:
        def op(v):
            # exp may overflow to inf for very negative inputs; 1/inf -> 0 is fine
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(-v))

        return self._unary(Kernel.SIGMOID, a, op)

    def log(self, a: int) -> int:
        return self._unary(Kernel.LOG, a, np.log)

    def softmax(self, a: int) -> int:
        # Per-row, with max subtraction for stability.
        def op(v):
            shifted = v - v.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=-1, keepdims=True)

        return self._unary(Kernel.SOFTMAX, a, op)

    def scale(self, a: int, factor: float) -> int:
        node = self.nodes[a]
        value = (node.value * self.dtype(factor)).astype(self.dtype)
        return self._append(Kernel.SCALE, (a,), value, node.needs_grad, float(factor))

    def gather_rows(self, a: int, ids) -> int:
        """Rows ``ids`` of ``a``, in order; repeated ids are allowed."""
        node = self.nodes[a]
        rows = node.value.shape[0]
        ids = _checked_ids(Kernel.GATHER_ROWS, ids, rows, f"{rows} rows")
        return self._append(Kernel.GATHER_ROWS, (a,), node.value[ids], node.needs_grad, ids)

    def scatter_add(self, a: int, ids, width: int) -> int:
        """A ``width``-column matrix whose column ``ids[k]`` accumulates
        column k of ``a``; columns no id names are zero."""
        node = self.nodes[a]
        ids = _checked_ids(Kernel.SCATTER_ADD, ids, width, f"width {width}")
        if ids.size != node.value.shape[1]:
            raise DimensionError(
                f"scatter-add: {ids.size} ids for {node.value.shape[1]} columns"
            )
        value = np.zeros((node.value.shape[0], width), dtype=node.value.dtype)
        np.add.at(value, (slice(None), ids), node.value)
        return self._append(Kernel.SCATTER_ADD, (a,), value, node.needs_grad, ids)

    def transpose(self, a: int) -> int:
        node = self.nodes[a]
        return self._append(
            Kernel.TRANSPOSE, (a,), np.ascontiguousarray(node.value.T), node.needs_grad
        )

    def reduce_sum(self, a: int) -> int:
        node = self.nodes[a]
        value = np.array([[node.value.sum(dtype=np.float64)]], dtype=self.dtype)
        return self._append(Kernel.REDUCE_SUM, (a,), value, node.needs_grad)

    def reduce_mean(self, a: int) -> int:
        node = self.nodes[a]
        value = np.array([[node.value.mean(dtype=np.float64)]], dtype=self.dtype)
        return self._append(Kernel.REDUCE_MEAN, (a,), value, node.needs_grad)

    def neg_log_pick(self, a: int, ids) -> int:
        """``-log(a[r, ids[r]])`` for each row r, as a (rows x 1) column.

        ``ids`` holds one column index per row; a single int picks from a
        1-row input.  An index outside the row raises DimensionError naming
        the row.
        """
        node = self.nodes[a]
        rows, cols = node.value.shape
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.size != rows:
            raise DimensionError(f"neg-log-pick: {ids.size} indices for {rows} rows")
        bad = np.flatnonzero((ids < 0) | (ids >= cols))
        if bad.size:
            r = int(bad[0])
            raise DimensionError(
                f"neg-log-pick: index {int(ids[r])} at row {r} out of range "
                f"for {node.value.shape}"
            )
        picked = node.value[np.arange(rows), ids].astype(np.float64) + LOG_PICK_EPS
        # math.log, not np.log: the vectorised float64 log may differ in the last bit
        value = np.array([[-math.log(p)] for p in picked.tolist()], dtype=self.dtype)
        return self._append(Kernel.NEG_LOG_PICK, (a,), value, node.needs_grad, ids)

    # -- backward ----------------------------------------------------------

    def backward(self, loss: int):
        """Fill the gradients of the leaves (and Parameters) the loss depends on.

        The sweep releases what it has used: a computed node's adjoint once it
        has been pushed to the node's inputs, and its value once the sweep has
        passed it (every reader of a value comes later on the tape).  After
        backward only leaves hold a ``grad``, and only leaves and the loss
        node hold a ``value``; the tape cannot run backward again.  A
        Parameter holding no grad takes a float32 leaf adjoint as it is, so
        the leaf and the Parameter then share one array; otherwise the
        adjoint is added into the Parameter's grad.
        """
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
                continue
            if node.grad is not None:
                self._accumulate_input_grads(node, node.grad)
                node.grad = None  # nothing reads a pushed adjoint again
            if nid != loss:
                node.value = None  # its readers are this node and later ones
        for nid, p in self._param_nodes.values():
            g = self.nodes[nid].grad
            if g is None or g is p._grad:
                continue
            if p._grad is None and g.dtype == np.float32:
                p._grad = g
            else:
                np.add(p.grad, g.astype(np.float32, copy=False), out=p._grad)

    def _add_grad(self, nid: int, g, view: bool = False):
        """Accumulate adjoint ``g`` into node ``nid``.  A first adjoint is
        kept as it is, so ``view`` must be set when ``g`` may share memory
        with another node's grad (add, concat and transpose pass views)."""
        node = self.nodes[nid]
        if not node.needs_grad:
            return
        if node.grad is None:
            node.grad = g.copy() if view else g
        else:
            node.grad += g

    def _accumulate_input_grads(self, node: TapeNode, g: np.ndarray):
        k = node.kernel
        ids = node.input_ids
        if k is Kernel.MATMUL:
            a, b = ids
            va, vb = self.nodes[a].value, self.nodes[b].value
            if self.nodes[a].needs_grad:
                self._add_grad(a, g @ vb if node.arg else g @ vb.T)
            if self.nodes[b].needs_grad:
                self._add_grad(b, g.T @ va if node.arg else va.T @ g)
        elif k is Kernel.ADD:
            for i in ids:
                self._add_grad(i, _unbroadcast(g, self.nodes[i].value.shape), view=True)
        elif k is Kernel.MUL:
            a, b = ids
            va, vb = self.nodes[a].value, self.nodes[b].value
            if self.nodes[a].needs_grad:
                self._add_grad(a, _unbroadcast(g * vb, va.shape))
            if self.nodes[b].needs_grad:
                self._add_grad(b, _unbroadcast(g * va, vb.shape))
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
        elif k is Kernel.TANH_SUM:
            g_pre = g * (1.0 - node.value * node.value)
            for i in ids:
                self._add_grad(i, _unbroadcast(g_pre, self.nodes[i].value.shape), view=True)
        elif k is Kernel.SIGMOID:
            self._add_grad(ids[0], g * node.value * (1.0 - node.value))
        elif k is Kernel.SOFTMAX:
            y = node.value
            dot = (g * y).sum(axis=-1, keepdims=True)
            self._add_grad(ids[0], y * (g - dot))
        elif k is Kernel.LOG:
            self._add_grad(ids[0], g / self.nodes[ids[0]].value)
        elif k is Kernel.NEG_LOG_PICK:
            src = self.nodes[ids[0]]
            if src.needs_grad:
                rows = np.arange(src.value.shape[0])
                gi = np.zeros_like(src.value)
                gi[rows, node.arg] = -g[:, 0].astype(np.float64) / (
                    src.value[rows, node.arg].astype(np.float64) + LOG_PICK_EPS
                )
                self._add_grad(ids[0], gi)
        elif k is Kernel.REDUCE_SUM:
            src = self.nodes[ids[0]]
            self._add_grad(ids[0], np.full_like(src.value, float(g[0, 0])))
        elif k is Kernel.REDUCE_MEAN:
            src = self.nodes[ids[0]]
            self._add_grad(
                ids[0], np.full_like(src.value, float(g[0, 0]) / src.value.size)
            )
        elif k is Kernel.ELEMENTWISE_MIN:
            a, b = ids
            va, vb = self.nodes[a].value, self.nodes[b].value
            take_a = va <= vb  # ties route to the first input
            if self.nodes[a].needs_grad:
                self._add_grad(a, g * take_a)
            if self.nodes[b].needs_grad:
                self._add_grad(b, g * ~take_a)
        elif k is Kernel.SCALE:
            self._add_grad(ids[0], g * self.dtype(node.arg))
        elif k is Kernel.GATHER_ROWS:
            src = self.nodes[ids[0]]
            if src.needs_grad:
                if src.grad is None:
                    src.grad = np.zeros_like(src.value)
                np.add.at(src.grad, node.arg, g)
        elif k is Kernel.SCATTER_ADD:
            self._add_grad(ids[0], g[:, node.arg])
        elif k is Kernel.TRANSPOSE:
            self._add_grad(ids[0], g.T, view=True)
        else:
            raise ValueError(f"no backward rule for kernel {k}")


def zero_grads(params):
    for p in params:
        p.zero_grad()


SUM_CHUNK = 1 << 16


def _pairwise_sum_of_squares(flat, start: int, n: int) -> float:
    # numpy's float64 sum is a pairwise tree that splits n elements at
    # n//2 rounded down to a multiple of 8.  Splitting at the same points
    # makes each chunk's sum a subtree of that tree, so the result is
    # byte-identical to squaring one float64 copy of the whole grad.  Each
    # chunk is cast, then squared in place: a casting ufunc would add its
    # own 64 KiB buffer.
    if n <= SUM_CHUNK:
        chunk = flat[start : start + n].astype(np.float64)
        return float(np.square(chunk, out=chunk).sum())
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum_of_squares(flat, start, n2) + _pairwise_sum_of_squares(
        flat, start + n2, n - n2
    )


def _sum_of_squares(g) -> float:
    """Float64 sum of squares in memory order, with one float64 chunk of at
    most SUM_CHUNK elements alive at a time."""
    flat = g.ravel(order="K")  # a view for C- and F-ordered grads
    return _pairwise_sum_of_squares(flat, 0, flat.size)


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
    all-zero case).  Idempotent: a second application is a no-op.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(params)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in params:
        if p._grad is not None:
            p._grad *= np.float32(factor)
    return factor


def adagrad_step(params, lr: float):
    """acc += g^2; value -= lr * g / (sqrt(acc) + eps); grads are then released.

    Runs in place, SUM_CHUNK elements at a time: the grad is overwritten
    with the step, and the only temporary is one float32 chunk, so no
    parameter-sized array is made while the grads are alive.  A parameter
    holding no grad has a zero step and is left as it is.
    """
    lr, eps = np.float32(lr), np.float32(ADAGRAD_EPS)
    for p in params:
        g = p._grad
        if g is None:
            continue
        # C order for all three, whatever the grad's layout: reshape copies
        # a grad that is not C-contiguous, and the step is then made on that copy.
        flat_g, flat_acc, flat_value = (a.reshape(-1) for a in (g, p.adagrad_acc, p.value))
        for start in range(0, flat_g.size, SUM_CHUNK):
            chunk = slice(start, start + SUM_CHUNK)
            gc, acc = flat_g[chunk], flat_acc[chunk]
            tmp = np.multiply(gc, gc)
            acc += tmp
            gc *= lr
            np.sqrt(acc, out=tmp)
            tmp += eps
            gc /= tmp
            flat_value[chunk] -= gc
        p.zero_grad()


def optimizer_step(tape: Tape, loss: int, params, lr: float,
                   clip_norm: float | None = None) -> float:
    """Backward, clip to ``clip_norm`` (None: only check), Adagrad; returns the loss.

    A non-finite loss (before backward) or grad (naming the parameter, with
    every grad released) raises NonFiniteError, and no value changes."""
    value = float(tape.value(loss)[0, 0])
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite loss {value}")
    tape.backward(loss)
    try:
        if clip_norm is None:
            global_grad_norm(params)
        else:
            clip_global_norm(params, clip_norm)
    except NonFiniteError:
        zero_grads(params)  # leave no half-made step behind
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

    ``build(dtype)`` must construct a fresh tape from the current parameter
    values and return ``(tape, loss_node_id)``.  It is called many times, so
    it must be deterministic.  All differencing runs in float64.
    """
    if h <= 0:
        raise ValueError("h must be positive")

    def loss_value():
        tape, loss = build(np.float64)
        return float(tape.value(loss)[0, 0])

    tape, loss = build(np.float64)
    if tape.value(loss).size != 1:
        raise DimensionError("finite_diff_check: loss must be scalar")
    tape.backward(loss)
    analytic = {}
    for nid, p in tape._param_nodes.values():
        node = tape.nodes[nid]
        analytic[p.name] = (
            node.grad.copy() if node.grad is not None else np.zeros_like(node.value)
        )

    max_rel = 0.0
    worst = ""
    failures = []
    for p in params:
        grads = analytic.get(p.name)
        if grads is None:
            grads = np.zeros(p.value.shape, dtype=np.float64)
        flat_value = p.value.reshape(-1)
        flat_grad = grads.reshape(-1)
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
