"""
Tape autodiff in five minutes
=============================

Build a computation on a Tape, run one backward sweep, and cross-check the
gradients with central finite differences.
"""

import numpy as np

from b3sum.tape import (Parameter, Tape, adagrad_step, clip_global_norm, finite_diff_check,
                        zero_grads)

# A Tape records every kernel application.  Values are computed eagerly;
# calling backward() fills the gradients of the leaves the loss depends on.
w = Parameter("w", np.array([[0.5, -0.3], [0.1, 0.8]], dtype=np.float32))
b = Parameter("b", np.zeros((1, 2), dtype=np.float32))

tape = Tape()
x = tape.leaf([[1.0, 2.0]])
hidden = tape.tanh(tape.add(tape.matmul(x, tape.param(w)), tape.param(b)))
probs = tape.softmax(hidden)
loss = tape.neg_log_pick(probs, 0)

print("probabilities:", tape.value(probs))
print("loss:", float(tape.value(loss)[0, 0]))

tape.backward(loss)
print("dL/dw:\n", w.grad)
print("dL/db:", b.grad)

# The same graph, built fresh on demand, lets the checker compare every
# parameter entry against (f(x+h) - f(x-h)) / 2h in float64.


def build(dtype):
    t = Tape(dtype=dtype)
    xx = t.leaf([[1.0, 2.0]])
    h = t.tanh(t.add(t.matmul(xx, t.param(w)), t.param(b)))
    return t, t.neg_log_pick(t.softmax(h), 0)


report = finite_diff_check(build, [w, b], h=1e-3, tol=1e-3)
print(report)

# Optimizer step: clip the global gradient norm, then Adagrad.  Backward adds
# into the grads a parameter holds, so the first sweep's are released first.
zero_grads([w, b])
tape = Tape()
x = tape.leaf([[1.0, 2.0]])
h = tape.tanh(tape.add(tape.matmul(x, tape.param(w)), tape.param(b)))
tape.backward(tape.neg_log_pick(tape.softmax(h), 0))
factor = clip_global_norm([w, b], max_norm=2.0)
print("clip factor:", factor)
adagrad_step([w, b], lr=0.15)
print("w after one Adagrad step:\n", w.value)
