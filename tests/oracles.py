"""Independent brute-force oracles used to cross-check the library.

These are deliberately written with different algorithms/styles than the
implementations under test (list scans instead of Counters, full DP tables,
explicit permutation enumeration).

``OracleTape`` is a ``Tape`` with the kernels that only these references
and the tests' own readouts build: elementwise ``mul``, ``log``,
``transpose``, ``elementwise_min`` and ``reduce_sum``, each with its
backward rule, and ``attention_scores``, the scores that the library's
``attention`` kernel now forms with the softmax and coverage chain.  The
per-step references below call them, so a test that runs one through
production code first swaps the library's tape for it with
``use_oracle_tape``.  ``TwoHeadClassifierParams`` and
``two_head_decision_distribution`` keep the classifier's two-head decision,
which one decision layer replaced, as the reference its pin runs on.
``MixChainTape`` keeps the chain of nodes the ``copy_mix`` kernel replaced;
the summarizer's two pins (``GOLDEN`` and the pipeline's pinned run) pass it
to ``use_oracle_tape``, since the kernel sums its p_gen adjoint over the
source columns and so rounds training differently.  ``decode`` keeps the
beam search that copied each hypothesis's token and trace lists, the
reference for the library's search over links to parents.
"""

import collections
import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from b3sum import classifier, corpus, layers, summarizer
from b3sum import tape as tape_mod
from b3sum.layers import INIT_SCALE, BiLstmEncoder, EmbeddingTable, ParamInit, linear, zeros_param
from b3sum.summarizer import final_distribution, generation_prob, vocab_distribution
from b3sum.tape import ADAGRAD_EPS, CopyIds, DimensionError, Parameter, Tape, _unbroadcast


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


class OracleKernel(enum.Enum):
    MUL = "mul"
    LOG = "log"
    TRANSPOSE = "transpose"
    ELEMENTWISE_MIN = "elementwise-min"
    REDUCE_SUM = "reduce-sum"
    ATTENTION_SCORES = "attention-scores"
    SCATTER_ADD = "scatter-add"


def _score_tanh(features, queries, bias, coverage, w_c, r):
    """tanh(features + queries[r] + coverage[r]ᵀ·w_c + bias), added left to right."""
    total = features + queries[r : r + 1]
    if coverage is not None:
        total = total + coverage[r : r + 1].T @ w_c
    return np.tanh(total + bias)


def _attention_backward(features, queries, v, bias, coverage, w_c, grad):
    """Adjoints of ``OracleTape.attention_scores``'s inputs, in its input order.
    Each row's tanh is recomputed, used and dropped before the next row's."""
    d_features = np.zeros_like(features)
    d_queries = np.empty_like(queries)
    d_v = np.zeros_like(v)
    d_coverage = None if coverage is None else np.empty_like(coverage)
    d_w_c = None if coverage is None else np.zeros_like(w_c)
    for r in range(grad.shape[0]):
        y = _score_tanh(features, queries, bias, coverage, w_c, r)
        d_v += grad[r : r + 1] @ y
        d_pre = grad[r : r + 1].T * v
        d_pre *= 1 - y * y
        d_features += d_pre
        d_queries[r] = d_pre.sum(axis=0)
        if coverage is not None:
            d_coverage[r] = (d_pre @ w_c.T)[:, 0]
            d_w_c += coverage[r : r + 1] @ d_pre
    grads = [d_features, d_queries, d_v, d_queries.sum(axis=0, keepdims=True)]
    return grads if coverage is None else grads + [d_coverage, d_w_c]


class OracleTape(Tape):
    """A Tape with ``mul`` (broadcasting as ``add`` does), ``log``,
    ``transpose``, ``elementwise_min``, ``reduce_sum`` and
    ``attention_scores`` as well as the library's kernels."""

    def mul(self, a, b):
        return self._elementwise_binary(OracleKernel.MUL, a, b, np.multiply)

    def log(self, a):
        return self._unary(OracleKernel.LOG, a, np.log)

    def transpose(self, a):
        return self._append(OracleKernel.TRANSPOSE, (a,), np.ascontiguousarray(self.value(a).T))

    def elementwise_min(self, a, b):
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise DimensionError(f"elementwise-min: dims must match: {va.shape} vs {vb.shape}")
        return self._append(OracleKernel.ELEMENTWISE_MIN, (a, b), np.minimum(va, vb))

    def reduce_sum(self, a):
        value = np.array([[self.value(a).sum(dtype=np.float64)]], dtype=self.dtype)
        return self._append(OracleKernel.REDUCE_SUM, (a,), value)

    def attention_scores(self, features, queries, v, bias, coverage=None, w_c=None):
        """Attention scores of R query rows over n positions, (R x n).

        Row r is ``tanh(features + queries[r] + coverage[r]ᵀ·w_c + bias)·vᵀ``,
        added left to right, the coverage term only with ``coverage``.
        ``features`` is (n x attn), ``queries`` (R x attn), ``v``, ``bias``
        and ``w_c`` (1 x attn), ``coverage`` (R x n), one coverage row per
        query row.
        """
        ids = (features, queries, v, bias) + (() if coverage is None else (coverage, w_c))
        vf, vq, vv, vbias, *rest = (self.value(i) for i in ids)
        vc, vw = rest or (None, None)
        scores = np.empty((vq.shape[0], vf.shape[0]), dtype=np.result_type(vf, vq))
        for r in range(vq.shape[0]):
            scores[r] = (_score_tanh(vf, vq, vbias, vc, vw, r) @ vv.T)[:, 0]
        return self._append(OracleKernel.ATTENTION_SCORES, ids, scores)

    def _accumulate_input_grads(self, node, g):
        k, ids = node.kernel, node.input_ids
        if k is OracleKernel.MUL:
            a, b = ids
            va, vb = self.nodes[a].value, self.nodes[b].value
            if self.nodes[a].needs_grad:
                self._add_grad(a, _unbroadcast(g * vb, va.shape))
            if self.nodes[b].needs_grad:
                self._add_grad(b, _unbroadcast(g * va, vb.shape))
        elif k is OracleKernel.LOG:
            self._add_grad(ids[0], g / self.nodes[ids[0]].value)
        elif k is OracleKernel.TRANSPOSE:
            self._add_grad(ids[0], g.T, view=True)
        elif k is OracleKernel.ELEMENTWISE_MIN:
            a, b = ids
            va, vb = self.nodes[a].value, self.nodes[b].value
            take_a = va <= vb  # ties route to the first input
            if self.nodes[a].needs_grad:
                self._add_grad(a, g * take_a)
            if self.nodes[b].needs_grad:
                self._add_grad(b, g * ~take_a)
        elif k is OracleKernel.REDUCE_SUM:
            src = self.nodes[ids[0]]
            self._add_grad(ids[0], np.full_like(src.value, float(g[0, 0])))
        elif k is OracleKernel.ATTENTION_SCORES:
            values = [self.nodes[i].value for i in ids]
            if len(values) == 4:  # no coverage term
                values += [None, None]
            for i, gi in zip(ids, _attention_backward(*values, g)):
                self._add_grad(i, gi)
        else:
            super()._accumulate_input_grads(node, g)


def use_oracle_tape(monkeypatch, tape_cls=OracleTape):
    """Make every tape the library builds a ``tape_cls``, an ``OracleTape``
    by default, so a reference that calls ``mul``, ``log``, ``transpose``,
    ``elementwise_min`` or ``reduce_sum`` runs through production training,
    evaluation, decoding and classification."""
    for module in (tape_mod, summarizer, classifier):
        monkeypatch.setattr(module, "Tape", tape_cls)


class MixChainTape(OracleTape):
    """A Tape whose ``copy_mix`` is the chain of nodes the kernel replaced:
    pad, concat, scatter-add, one, scale, add, mul, mul, add.

    ``scatter_add`` is the kernel that chain used: a ``width``-column matrix
    whose column ``ids[k]`` accumulates column k of ``a``, its adjoint a
    column gather.
    """

    def scatter_add(self, a, ids, width):
        va = self.value(a)
        ids = np.asarray(ids, dtype=np.intp)
        value = np.zeros((va.shape[0], width), dtype=va.dtype)
        np.add.at(value, (slice(None), ids), va)
        return self._append(OracleKernel.SCATTER_ADD, (a,), value, ids)

    def _accumulate_input_grads(self, node, g):
        if node.kernel is OracleKernel.SCATTER_ADD:
            self._add_grad(node.input_ids[0], g[:, node.arg])
        else:
            super()._accumulate_input_grads(node, g)

    def copy_mix(self, p_gen, p_vocab, a, ids):
        rows, vocab = self.value(p_vocab).shape
        if ids.width > vocab:
            pad = self.leaf(np.zeros((rows, ids.width - vocab), dtype=self.dtype))
            p_vocab = self.concat([p_vocab, pad], axis=1)
        p_copy = self.scatter_add(a, ids.ids, ids.width)
        one = self.leaf(np.ones((1, 1), dtype=self.dtype))
        inv_gate = self.add(one, self.scale(p_gen, -1.0))
        return self.add(self.mul(p_vocab, p_gen), self.mul(p_copy, inv_gate))


class DenseTape(MixChainTape):
    """The dense formulation that the sparse kernels replaced.

    Gathers are one-hot constants times the table, the copy mix is the chain
    of nodes with the attention row times an (n x width) copy matrix as its
    scatter, and a transposed weight is an explicit transpose node.  Running
    the library's own loss and decoder on this tape gives the dense
    reference path.
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

    def matmul(self, a, b, transpose_b=False, per_row=False):
        if transpose_b:
            b = self.transpose(b)
        return super().matmul(a, b, per_row=per_row)


class DenseWeightTape(Tape):
    """A Tape whose matmul rule forms a ``transpose_b`` weight's adjoint as
    the dense product gᵀ·a, as it did before large weights kept the two
    factors."""

    def _add_weight_grad(self, nid, g, a):
        self._add_grad(nid, g.T @ self.nodes[a].value)


# -- the per-step composites that the sequence kernels replaced ---------------
#
# The recurrent layers and attention as they were before the ``lstm`` and
# attention kernels: one LSTM step per token built from the tape's
# elementwise kernels, attention's score sum as an add chain under one tanh,
# and the coverage penalty and update as min, sum and add nodes per step.  Their nodes come in the order the library made them, so forward
# values and every adjoint sum match that path bit for bit: the reference
# that the pinned training runs use.


def embed_rows(tape, table, ids):
    """One 1-row gather per id."""
    w = tape.param(table.weights)
    return [tape.gather_rows(w, (i,)) for i in ids]


def zero_state(tape, cell):
    z = np.zeros((1, cell.hidden_dim), dtype=tape.dtype)
    return tape.leaf(z), tape.leaf(z.copy())


def lstm_step(tape, cell, x, h_prev, c_prev):
    """One LSTM step on 1-row nodes: returns (h_t, c_t)."""
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


OracleStates = collections.namedtuple("OracleStates", "h_concat final_h final_c length")


def bilstm_encode(tape, enc, xs):
    """Both directions step by step over a list of 1-row nodes; every state
    is built at once."""
    h_f, c_f = zero_state(tape, enc.forward_cell)
    fwd = []
    for x in xs:
        h_f, c_f = lstm_step(tape, enc.forward_cell, x, h_f, c_f)
        fwd.append(h_f)
    h_b, c_b = zero_state(tape, enc.backward_cell)
    bwd = [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        h_b, c_b = lstm_step(tape, enc.backward_cell, xs[k], h_b, c_b)
        bwd[k] = h_b
    return OracleStates(
        h_concat=tape.concat([tape.concat(fwd, axis=0), tape.concat(bwd, axis=0)], axis=1),
        final_h=tape.concat([fwd[-1], bwd[0]], axis=1),
        final_c=tape.concat([c_f, c_b], axis=1),
        length=len(xs),
    )


class TwoHeadClassifierParams:
    """The classifier before one decision layer replaced its two heads: after
    the embedding and encoder draws come ``cls.W_p``, ``cls.b_p``, ``cls.W_s``
    and ``cls.b_s`` (each head 2 x 2*hidden, each bias 1 x 2), drawn and
    listed in that order; ``two_head_decision_distribution`` reads row 0 of
    each head.  The classifier pin was computed on it."""

    def __init__(self, vocab_size, emb_dim, hidden_dim, seed):
        init = ParamInit(seed)
        self.embedding = EmbeddingTable(init, "cls.emb", vocab_size, emb_dim)
        self.encoder = BiLstmEncoder(init, "cls.enc", emb_dim, hidden_dim)
        self.head_parallel_w = init.uniform("cls.W_p", (2, 2 * hidden_dim))
        self.head_parallel_b = zeros_param("cls.b_p", (1, 2))
        self.head_sequence_w = init.uniform("cls.W_s", (2, 2 * hidden_dim))
        self.head_sequence_b = zeros_param("cls.b_s", (1, 2))
        init.draw()

    def params(self):
        return (self.embedding.params() + self.encoder.params()
                + [self.head_parallel_w, self.head_parallel_b,
                   self.head_sequence_w, self.head_sequence_b])


def two_head_decision_distribution(tape, model, ids):
    """The first logit of each head, one-column slices joined into a shared
    2-way softmax; drop-in for ``classifier.decision_distribution``."""
    h = classifier.encode_text(tape, model, ids)
    first = [tape.slice(linear(tape, w, b, h), cols=(0, 1))
             for w, b in ((model.head_parallel_w, model.head_parallel_b),
                          (model.head_sequence_w, model.head_sequence_b))]
    return tape.softmax(tape.concat(first, axis=1))


def attend(tape, model, h_all, enc_features, s_t, coverage, use_coverage):
    """One step's attention: tanh of the score terms added left to right."""
    terms = [enc_features, tape.matmul(s_t, tape.param(model.attn_w_state), transpose_b=True)]
    if use_coverage:
        terms.append(tape.matmul(tape.transpose(coverage), tape.param(model.attn_w_cov)))
    terms.append(tape.param(model.attn_bias))
    total = terms[0]
    for term in terms[1:]:
        total = tape.add(total, term)
    scores = tape.tanh(total)
    e_t = tape.transpose(tape.matmul(scores, tape.param(model.attn_v), transpose_b=True))
    a_t = tape.softmax(e_t)
    return e_t, a_t, tape.matmul(a_t, h_all)


StackedStep = collections.namedtuple("StackedStep", "s h_star a p_gen penalties")


def _per_step_teacher_forced(tape, model, ex, use_coverage, force_p_gen, output_per_row):
    """Teacher forcing built from the per-step composites above: encoder and
    decoder one step per token and attention one step at a time, with the
    output part once per target row inside the step loop or once on all
    rows after it.  The rows are stacked into a ``StackedStep``, whose
    fields are the ``DecoderStep`` fields that ``sequence_loss`` and
    ``helpers.step_traces`` read; the loss reads none of the stacks that the
    output part does not."""
    xs = embed_rows(tape, model.embedding, ex.ext.enc_ids)
    enc = bilstm_encode(tape, model.encoder, xs)
    # h_concat's first reader: backward adds this node's adjoint to h_concat
    # after every h_star's
    enc_features = tape.matmul(enc.h_concat, tape.param(model.attn_w_enc), transpose_b=True)
    h_t = tape.tanh(linear(tape, model.bridge_w_h, model.bridge_b_h, enc.final_h))
    c_t = tape.tanh(linear(tape, model.bridge_w_c, model.bridge_b_c, enc.final_c))
    coverage = tape.leaf(np.zeros((1, enc.length), dtype=tape.dtype)) if use_coverage else None
    copy_ids = CopyIds(ex.ext.src_ext_ids, ex.ext.size)
    rows, states, contexts, attention, switches, penalties = ([] for _ in range(6))

    def output(s, h_star, a, p_gen):
        p_vocab = vocab_distribution(tape, model, s, h_star)
        return final_distribution(tape, p_gen, p_vocab, a, copy_ids)

    for x_t in embed_rows(tape, model.embedding, ex.dec_in_ids):
        h_t, c_t = lstm_step(tape, model.decoder, x_t, h_t, c_t)
        s_t = tape.concat([h_t, c_t], axis=1)
        _, a_t, h_star = attend(tape, model, enc.h_concat, enc_features, s_t, coverage,
                                use_coverage)
        if force_p_gen is None:
            p_gen = generation_prob(tape, model, h_star, s_t, x_t)
        else:
            p_gen = tape.leaf(np.full((1, 1), force_p_gen, dtype=tape.dtype))
        if output_per_row:
            rows.append(output(s_t, h_star, a_t, p_gen))
        for out, node in zip((states, contexts, attention, switches), (s_t, h_star, a_t, p_gen)):
            out.append(node)
        if use_coverage:
            penalties.append(tape.reduce_sum(tape.elementwise_min(a_t, coverage)))
            coverage = tape.add(coverage, a_t)
    if output_per_row:
        p_final = tape.concat(rows, axis=0)
        s, h_star, a, p_gen = (tape.concat(nodes, axis=0)
                               for nodes in (states, contexts, attention, switches))
    else:
        s, h_star = tape.concat(states, axis=0), tape.concat(contexts, axis=0)
        p_vocab = vocab_distribution(tape, model, s, h_star)
        p_gen, a = tape.concat(switches, axis=0), tape.concat(attention, axis=0)
        p_final = final_distribution(tape, p_gen, p_vocab, a, copy_ids)
    penalties = tape.concat(penalties, axis=0) if use_coverage else None
    return p_final, StackedStep(s, h_star, a, p_gen, penalties)


def per_row_teacher_forced(tape, model, ex, use_coverage, force_p_gen):
    """Drop-in for ``summarizer._teacher_forced`` on the per-step path, with
    the output part once per target row, as one decoder step made it before
    the rows were stacked: the reference for the pinned golden values, where
    one stacked (T x hidden) GEMM also rounds differently from T row
    products."""
    return _per_step_teacher_forced(tape, model, ex, use_coverage, force_p_gen, True)


def per_step_teacher_forced(tape, model, ex, use_coverage, force_p_gen):
    """Drop-in for ``summarizer._teacher_forced`` on the per-step path, with
    the output part once on all target rows: the reference for the pinned
    pipeline run."""
    return _per_step_teacher_forced(tape, model, ex, use_coverage, force_p_gen, False)


# Beam search as it was before hypotheses became links to their parents:
# each candidate copies its hypothesis's token and trace lists, and every
# stepped hypothesis gets a ``StepTrace`` of copied arrays before the beam
# prunes.  It runs the library's step pieces, so it is the reference for
# the search itself: which candidates are kept, how ties break, and which
# hypothesis wins.


@dataclass
class Hypothesis:
    tokens: list[int] = field(default_factory=list)
    log_prob: float = 0.0
    state: int | None = None  # the decoder state row [h | c]
    coverage: int | None = None
    sb_count: int = 0
    finished: bool = False
    traces: list = field(default_factory=list)

    def score(self) -> float:
        return self.log_prob / max(1, len(self.tokens))


def _advance(hyp, token, log_prob, state, traces):
    """``hyp`` continued by ``token``, with no coverage yet: ``decode`` adds
    it only to a hypothesis that takes another step."""
    sb_count = hyp.sb_count + (token == corpus.Vocabulary.SB)
    return Hypothesis(tokens=hyp.tokens + [token], log_prob=log_prob,
                      state=state, sb_count=sb_count,
                      finished=token == corpus.Vocabulary.STOP or sb_count >= 3, traces=traces)


def decode(model, article_tokens, vocab, mode="greedy", beam_size=4, max_decode_len=120,
           use_coverage=False, force_p_gen=None, collect_traces=False):
    """Drop-in for ``summarizer.decode`` on copied token and trace lists."""
    s = summarizer
    if not article_tokens:
        raise ValueError("decode: empty article")
    if mode not in ("greedy", "beam"):
        raise ValueError(f"decode: unknown mode {mode!r}")
    if beam_size < 1:
        raise ValueError("decode: beam size must be >= 1")
    if model.vocab_size != vocab.size:
        raise ValueError(
            f"decode: model vocab {model.vocab_size} != vocabulary size {vocab.size}"
        )
    width = 1 if mode == "greedy" else beam_size
    ext = s.ExtendedVocab(vocab, article_tokens)
    tape = Tape(record=False)
    art = s.encode_article(tape, model, ext)
    beams = [Hypothesis(state=art.s0,
                        coverage=art.zero_coverage(tape) if use_coverage else None)]
    finished = []
    for t in range(max_decode_len):
        steps, candidates = [], []
        for h_idx, hyp in enumerate(beams):
            prev = hyp.tokens[-1] if hyp.tokens else corpus.Vocabulary.START
            prev = prev if prev < model.vocab_size else corpus.Vocabulary.UNK
            x_t = layers.embed_rows(tape, model.embedding, [prev])
            step = s.decoder_step(tape, model, art, x_t, hyp.state, hyp.coverage, force_p_gen)
            probs = tape.value(s.output_distribution(tape, model, art, step))[0]
            if not np.isfinite(probs).all():
                raise ValueError(f"decode: non-finite probabilities at step {t}")
            logps = np.log(probs.astype(np.float64) + s.PGEN_EPS)
            logps[list(s._BANNED_STARTS)] = -np.inf
            traces = hyp.traces
            if collect_traces:
                attention = tape.value(step.a).copy()
                coverage = (np.zeros(attention.shape) if hyp.coverage is None
                            else tape.value(hyp.coverage).copy())
                penalty = None if hyp.coverage is None else float(
                    np.minimum(attention, coverage).sum())
                traces = traces + [s.StepTrace(attention, coverage,
                                               float(tape.value(step.p_gen)[0, 0]), penalty)]
            steps.append((step, traces))
            for token in s._top_k(logps, 2 * width):
                candidates.append((-(hyp.log_prob + float(logps[token])), h_idx, int(token)))
        candidates.sort()
        parents, beams, kept_from = beams, [], []
        for neg_log_prob, h_idx, token in candidates:
            step, traces = steps[h_idx]
            nh = _advance(parents[h_idx], token, -neg_log_prob, step.s, traces)
            if nh.finished:
                finished.append(nh)
            else:
                beams.append(nh)
                kept_from.append(h_idx)
            if len(beams) >= width:
                break
        if not beams or len(finished) >= width or t + 1 == max_decode_len:
            break
        if use_coverage:  # one next coverage per parent, shared by its kept children
            added = {h_idx: tape.add(parents[h_idx].coverage, steps[h_idx][0].a)
                     for h_idx in dict.fromkeys(kept_from)}
            for nh, h_idx in zip(beams, kept_from):
                nh.coverage = added[h_idx]
    pool = finished if finished else beams
    best = max(pool, key=lambda h: (h.score(), -len(h.tokens)))
    sentences, degenerate = s._split_sentences(best.tokens, ext)
    return s.DecodeResult(sentences, best.tokens, degenerate, best.traces)


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


def dense_acc_row_step(value, acc, grad, lr):
    """Adagrad from a ``RowBlock`` grad on a dense accumulator, as
    ``adagrad_step`` made it before tables kept row states: the grad's rows
    of ``value`` and ``acc`` are updated in place."""
    rows = grad.rows
    value[rows], acc[rows] = reference_adagrad_step(value[rows], grad.block, acc[rows], lr)


def uniform_param(rng, name, shape):
    """One serial ``rng.uniform`` call cast to float32: the reference for
    ``layers.ParamInit``'s one-pass draw."""
    return Parameter(name, rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(np.float32))


def use_serial_init(monkeypatch):
    """Patch ``layers.ParamInit`` so each random tensor is drawn as it is
    declared, by ``uniform_param``, and ``draw`` has nothing left to do.
    Returns the names of the tensors drawn, in order, so a test can check
    that the reference made every random tensor it compares."""
    drawn = []
    declare = layers.ParamInit.uniform

    def serial(init, name, shape):
        if init.rng is None:
            return declare(init, name, shape)
        drawn.append(name)
        return uniform_param(init.rng, name, shape)

    monkeypatch.setattr(layers.ParamInit, "uniform", serial)
    monkeypatch.setattr(layers.ParamInit, "draw", lambda init: None)
    return drawn


def _fresh_oov_name(rng):
    return f"{corpus._OOV_STEMS[rng.integers(len(corpus._OOV_STEMS))]}{rng.integers(100, 1000)}"


def synth_generate(seed, n, oov_rate=0.2, structure_mix=0.8):
    """``corpus.synth_generate`` drawing through ``np.random.Generator``'s
    own ``choice``, ``random`` and ``integers``: the reference for the
    replayed draws."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n):
        e1, e2, e3, e4 = (corpus._ENTITIES[i]
                          for i in rng.choice(len(corpus._ENTITIES), size=4, replace=False))
        if rng.random() < oov_rate:
            e1 = _fresh_oov_name(rng)
        if rng.random() < oov_rate:
            e2 = _fresh_oov_name(rng)
        obj, obj2, obj3 = (corpus._OBJECTS[i]
                           for i in rng.choice(len(corpus._OBJECTS), size=3, replace=False))
        place, place2, place3 = (corpus._PLACES[i]
                                 for i in rng.choice(len(corpus._PLACES), size=3, replace=False))
        day, day2 = (corpus._DAYS[i] for i in rng.choice(len(corpus._DAYS), size=2, replace=False))
        time = corpus._TIMES[rng.integers(len(corpus._TIMES))]
        parallel = bool(rng.random() < structure_mix)

        s1 = [e1, "announced", "the", obj, "plan", "in", place, "on", day]
        s2 = [e2, "backed", "the", obj, "effort", "from", place2]
        if parallel:
            s3 = [e1, "outlined", "further", obj2, "steps", "for", time]
        else:
            s3 = [e2, "detailed", "the", obj, "terms", "this", time]

        article = (
            s1
            + [e3, "visited", "the", place3, "fair", "yesterday"]
            + s2
            + [e4, "reviewed", "a", obj3, "proposal", "overnight"]
            + s3
            + ["officials", "expect", "updates", "after", day2]
        )
        pairs.append(
            corpus.NewsPair(
                id=f"synth-{seed}-{k:05d}",
                article=article,
                summary=[s1, s2, s3],
                label=corpus.StructureLabel.PARALLEL if parallel else corpus.StructureLabel.SEQUENCE,
                category=corpus._CATEGORIES[int(rng.integers(len(corpus._CATEGORIES)))],
            )
        )
    return pairs


def build_vocab(pairs, mode="cap", size=50000, min_count=2):
    """The content tokens ``corpus.build_vocab`` keeps, counted token by
    token and sorted on ``(-count, first occurrence)``: the reference for
    the Counter path."""
    if not pairs:
        raise corpus.CorpusError("cannot build vocabulary from an empty corpus")
    counts = {}
    first_seen = {}
    for p in pairs:
        for tokens in [p.article, *p.summary]:
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
                first_seen.setdefault(t, len(first_seen))
    for special in corpus.Vocabulary.SPECIALS:
        counts.pop(special, None)
    ordered = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    if mode == "cap":
        if size < 0:
            raise corpus.CorpusError(f"vocabulary size must be >= 0, got {size}")
        kept = ordered[:size]
    elif mode == "min_count":
        kept = [t for t in ordered if counts[t] >= min_count]
    else:
        raise ValueError(f"unknown vocab mode {mode!r}")
    return kept

