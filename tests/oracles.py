"""Independent brute-force oracles used to cross-check the library.

These are deliberately written with different algorithms/styles than the
implementations under test (list scans instead of Counters, full DP tables,
explicit permutation enumeration).
"""

import itertools
import math

import numpy as np

from b3sum.layers import embed_rows
from b3sum.summarizer import (
    coverage_penalty,
    coverage_update,
    decoder_step,
    encode_article,
    output_distribution,
)
from b3sum.tape import ADAGRAD_EPS, Tape


def oracle_rouge_n(sys_t, ref_t, n):
    sys_grams = [tuple(sys_t[i : i + n]) for i in range(len(sys_t) - n + 1)]
    ref_grams = [tuple(ref_t[i : i + n]) for i in range(len(ref_t) - n + 1)]
    overlap = 0
    remaining = list(ref_grams)
    for g in sys_grams:
        if g in remaining:
            remaining.remove(g)
            overlap += 1
    p = overlap / len(sys_grams) if sys_grams else 0.0
    r = overlap / len(ref_grams) if ref_grams else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge_l(sys_t, ref_t):
    lcs = oracle_lcs(list(sys_t), list(ref_t))
    p = lcs / len(sys_t) if sys_t else 0.0
    r = lcs / len(ref_t) if ref_t else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_align(sys_sents, ref_sents):
    """Exhaustive 6-permutation search; ties to the smallest pattern string."""
    best = None
    for perm in itertools.permutations(range(3)):
        slot_f1 = [oracle_rouge_l(sys_sents[k], ref_sents[perm[k]])[2] for k in range(3)]
        mean = sum(slot_f1) / 3
        pattern = "".join(str(i + 1) for i in perm)
        key = (-mean, pattern)
        if best is None or key < best[0]:
            best = (key, perm, slot_f1)
    return best[1], best[2]


class DenseTape(Tape):
    """The dense formulation that the sparse kernels replaced.

    Gathers are one-hot constants times the table, scatters are the
    attention row times an (n x width) copy matrix, and a transposed weight
    is an explicit transpose node.  Running the library's own loss and
    decoder on this tape gives the dense reference path.
    """

    def gather_rows(self, a, ids):
        one_hot = np.zeros((len(ids), self.value(a).shape[0]))
        for k, i in enumerate(ids):
            one_hot[k, i] = 1.0
        return self.matmul(self.leaf(one_hot), a)

    def scatter_add(self, a, ids, width):
        copy = np.zeros((len(ids), width))
        for k, i in enumerate(ids):
            copy[k, i] = 1.0
        return self.matmul(a, self.leaf(copy))

    def matmul(self, a, b, transpose_b=False):
        if transpose_b:
            b = self.transpose(b)
        return super().matmul(a, b)


def per_row_teacher_forced(tape, model, ex, use_coverage, force_p_gen):
    """Drop-in for ``summarizer._teacher_forced`` that runs the output part
    once per target row, inside the step loop, as one decoder step did
    before the rows were stacked.

    Its nodes are made in that order too, so forward values and every
    adjoint sum match the per-step path bit for bit: the reference for the
    pinned golden values, where one stacked (T x hidden) GEMM rounds
    differently from T row products.
    """
    art = encode_article(tape, model, ex.ext)
    coverage = art.zero_coverage(tape) if use_coverage else None
    state = (art.h0, art.c0)
    rows, steps, coverages, penalties = [], [], [], []
    for x_t in embed_rows(tape, model.embedding, ex.dec_in_ids):
        step = decoder_step(tape, model, art, x_t, state, coverage, use_coverage, force_p_gen)
        state = step.state
        rows.append(output_distribution(tape, model, art, [step]))
        steps.append(step)
        coverages.append(coverage)
        penalties.append(coverage_penalty(tape, step.a_t, coverage) if use_coverage else None)
        if use_coverage:
            coverage = coverage_update(tape, coverage, step.a_t)
    return tape.concat(rows, axis=0), steps, coverages, penalties


def reference_clip_global_norm(grads, max_norm):
    """Global-norm clip on copies, written out: each grad cast to float64,
    multiplied by itself and summed.  Returns (factor, clipped grads)."""
    total = 0.0
    for g in grads:
        g64 = g.astype(np.float64)
        total += float((g64 * g64).sum())
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0, [g.copy() for g in grads]
    factor = max_norm / norm
    return factor, [g * np.float32(factor) for g in grads]


def reference_adagrad_step(value, grad, acc, lr):
    """Adagrad update on copies, written as the formula reads; returns
    (value, acc)."""
    acc = acc + grad * grad
    value = value - np.float32(lr) * grad / (np.sqrt(acc) + np.float32(ADAGRAD_EPS))
    return value, acc
