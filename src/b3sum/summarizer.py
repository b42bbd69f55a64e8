"""Attention encoder-decoder with a copy mechanism and coverage penalty.

One model generates a summary of exactly three bullet sentences, serialized
as ``s1 <sb> s2 <sb> s3 </s>``.  The decoder mixes a generated vocabulary
distribution with a copy distribution over source positions through a
soft switch p_gen, so out-of-vocabulary source tokens remain emittable.
The optional coverage term feeds the running sum of past attention back
into the attention scores and penalizes re-attended positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import RunConfig
from .corpus import NewsPair, Vocabulary
from .layers import (
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
from .tape import CopyIds, Parameter, Tape, optimizer_step

PGEN_EPS = 1e-12


class ExtendedVocab:
    """Base vocabulary plus this document's out-of-vocabulary source tokens,
    with the article's ids in both: ``enc_ids`` (base, an OOV as ``<unk>``)
    feed the encoder, and the copy distribution scatters onto
    ``src_ext_ids`` (extended)."""

    def __init__(self, base: Vocabulary, article_tokens):
        self.base = base
        self._oov_ids: dict[str, int] = {}
        self.enc_ids: list[int] = []
        self.src_ext_ids: list[int] = []
        for t in article_tokens:
            if t in base:
                base_id = ext_id = base.id(t)
            else:
                base_id = Vocabulary.UNK
                ext_id = self._oov_ids.setdefault(t, base.size + len(self._oov_ids))
            self.enc_ids.append(base_id)
            self.src_ext_ids.append(ext_id)
        self.doc_oovs = list(self._oov_ids)

    @property
    def size(self) -> int:
        return self.base.size + len(self.doc_oovs)

    def id(self, token: str) -> int:
        if token in self.base:
            return self.base.id(token)
        return self._oov_ids.get(token, Vocabulary.UNK)

    def token(self, i: int) -> str:
        if i < self.base.size:
            return self.base.token(i)
        return self.doc_oovs[i - self.base.size]


class SummarizerParams:
    """All learnable tensors of the summarization model, drawn from ``seed``
    as one stream (``layers.ParamInit``); with ``seed=None`` every tensor is
    zeros, made without a draw, for a checkpoint to replace."""

    def __init__(self, vocab_size: int, emb_dim: int, hidden_dim: int,
                 attn_dim: int | None = None, seed: int | None = 13):
        init = ParamInit(seed)
        attn_dim = attn_dim or hidden_dim
        self.vocab_size = vocab_size
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        self.attn_dim = attn_dim
        state_dim = 2 * hidden_dim       # decoder state s_t is [h; c]
        enc_dim = 2 * hidden_dim         # encoder h_i is [fwd; bwd]
        feat_dim = state_dim + enc_dim   # [s_t, h*_t]

        self.embedding = EmbeddingTable(init, "emb", vocab_size, emb_dim)
        self.encoder = BiLstmEncoder(init, "enc", emb_dim, hidden_dim)
        self.decoder = LstmCell(init, "dec", emb_dim, hidden_dim)

        self.attn_v = init.uniform("attn.v", (1, attn_dim))
        self.attn_w_enc = init.uniform("attn.W_h", (attn_dim, enc_dim))
        self.attn_w_state = init.uniform("attn.W_s", (attn_dim, state_dim))
        self.attn_bias = zeros_param("attn.b_a", (1, attn_dim))
        self.attn_w_cov = init.uniform("attn.w_c", (1, attn_dim))

        self.proj_b_in = zeros_param("proj.b_in", (1, feat_dim))
        self.proj_v = init.uniform("proj.V", (hidden_dim, feat_dim))
        self.proj_b_mid = zeros_param("proj.b_mid", (1, hidden_dim))
        self.proj_v_out = init.uniform("proj.V_out", (vocab_size, hidden_dim))

        self.ptr_w_context = init.uniform("ptr.w_context", (1, enc_dim))
        self.ptr_w_state = init.uniform("ptr.w_state", (1, state_dim))
        self.ptr_w_input = init.uniform("ptr.w_input", (1, emb_dim))
        self.ptr_bias = zeros_param("ptr.b_g", (1, 1))

        self.bridge_w_h = init.uniform("bridge.W_h", (hidden_dim, enc_dim))
        self.bridge_b_h = zeros_param("bridge.b_h", (1, hidden_dim))
        self.bridge_w_c = init.uniform("bridge.W_c", (hidden_dim, enc_dim))
        self.bridge_b_c = zeros_param("bridge.b_c", (1, hidden_dim))
        init.draw()

    def params(self) -> list[Parameter]:
        return (
            self.embedding.params()
            + self.encoder.params()
            + self.decoder.params()
            + [
                self.attn_v, self.attn_w_enc, self.attn_w_state, self.attn_bias,
                self.attn_w_cov, self.proj_b_in, self.proj_v, self.proj_b_mid,
                self.proj_v_out, self.ptr_w_context, self.ptr_w_state,
                self.ptr_w_input, self.ptr_bias, self.bridge_w_h, self.bridge_b_h,
                self.bridge_w_c, self.bridge_b_c,
            ]
        )


# -- single decoding step pieces ---------------------------------------------


def attend(tape: Tape, model: SummarizerParams, h_all: int, enc_features: int, s: int,
           coverage: int | None) -> tuple[int, int, int | None]:
    """Attention distribution and context vector for R decoder rows, from
    one ``attention`` node.

    ``h_all`` is the (n x 2*hidden) encoder-state node and ``enc_features``
    its (n x attn) features h_all·W_hᵀ, which do not depend on the step, so
    ``encode_article`` computes them once per article.  ``s`` holds R decoder
    states, one row each.  ``coverage`` is the (1 x n) summed past attention
    before the first row, or None for no coverage; with it each row reads
    the coverage the rows before it leave.  Each row's products are one-row
    products, so a row gets the values it would get alone.  Returns node
    ids (a, h_star, attention): R rows each, and with coverage the
    (R x (n + 1)) attention node ``a`` is sliced from, its last column the
    coverage penalties, or None without coverage.
    """
    queries = tape.matmul(s, tape.param(model.attn_w_state), transpose_b=True, per_row=True)
    scored = [enc_features, queries, tape.param(model.attn_v), tape.param(model.attn_bias)]
    attention = None
    if coverage is None:
        a = tape.attention(*scored)
    else:
        attention = tape.attention(*scored, coverage, tape.param(model.attn_w_cov))
        a = tape.slice(attention, cols=(0, tape.value(coverage).shape[1]))
    h_star = tape.matmul(a, h_all, per_row=True)
    return a, h_star, attention


def vocab_distribution(tape: Tape, model: SummarizerParams, s_t: int, h_star: int) -> int:
    """Two stacked linear maps then softmax over the base vocabulary."""
    feat = tape.concat([s_t, h_star], axis=1)
    inner = tape.add(feat, tape.param(model.proj_b_in))
    mid = linear(tape, model.proj_v, model.proj_b_mid, inner)
    logits = tape.matmul(mid, tape.param(model.proj_v_out), transpose_b=True)
    return tape.softmax(logits)


def generation_prob(tape: Tape, model: SummarizerParams, h_star: int, s_t: int,
                    x_t: int) -> int:
    """Soft switch between generating and copying, in (0, 1), one row per
    step, each from one-row products."""
    def dot(x, w):
        return tape.matmul(x, tape.param(w), transpose_b=True, per_row=True)

    pre = tape.add(
        tape.add(dot(h_star, model.ptr_w_context), dot(s_t, model.ptr_w_state)),
        tape.add(dot(x_t, model.ptr_w_input), tape.param(model.ptr_bias)),
    )
    return tape.sigmoid(pre)


def final_distribution(tape: Tape, p_gen: int, p_vocab: int, a_t: int,
                       copy_ids: CopyIds) -> int:
    """Mix the generation and copy distributions over the extended vocab.

    ``copy_ids.ids[i]`` is the extended-vocab id of source position i, and
    ``copy_ids.width`` the extended vocab's size; the copy distribution puts
    attention weight i on that id.  Row r of ``p_gen``, ``p_vocab`` and
    ``a_t`` belongs to one step, and so does row r of the result.  One
    ``copy_mix`` node.
    """
    return tape.copy_mix(p_gen, p_vocab, a_t, copy_ids)


# -- prepared examples and the teacher-forced loss ----------------------------


@dataclass
class PreparedExample:
    """A pair mapped to ids: decoder input (teacher forcing), extended-vocabulary
    targets ending in the stop token, and the article's ``ExtendedVocab``,
    which holds its source ids."""

    id: str
    dec_in_ids: list[int]
    target_ext_ids: list[int]
    ext: ExtendedVocab


def target_token_sequence(pair: NewsPair) -> list[str]:
    out = list(pair.summary[0])
    for sent in pair.summary[1:]:
        out.append(Vocabulary.SPECIALS[Vocabulary.SB])
        out.extend(sent)
    return out


def prepare_pair(pair: NewsPair, vocab: Vocabulary) -> PreparedExample:
    ext = ExtendedVocab(vocab, pair.article)
    target_tokens = target_token_sequence(pair)
    target_ext = [ext.id(t) for t in target_tokens] + [Vocabulary.STOP]
    target_base = vocab.encode(target_tokens) + [Vocabulary.STOP]
    dec_in = [Vocabulary.START] + target_base[:-1]
    return PreparedExample(id=pair.id, dec_in_ids=dec_in, target_ext_ids=target_ext, ext=ext)


@dataclass
class StepTrace:
    attention: np.ndarray
    coverage_before: np.ndarray
    p_gen: float
    penalty: float | None


@dataclass
class EncodedArticle:
    """Per-article decoder context: the encoder's (n x 2*hidden) states
    ``h_all`` and their attention features, the bridged initial decoder state
    row s0 = [h0 | c0], and the article's source ids as the copy mix reads
    them, checked and deduplicated once per article rather than once per
    step.  It keeps no other encoder node, so decoding frees them."""

    h_all: int
    enc_features: int
    s0: int
    copy_ids: CopyIds

    def zero_coverage(self, tape: Tape) -> int:
        return tape.leaf(np.zeros((1, tape.value(self.h_all).shape[0]), dtype=tape.dtype))


def encode_article(tape: Tape, model: SummarizerParams, ext: ExtendedVocab) -> EncodedArticle:
    """Run the encoder over the article's base-vocab ``ext.enc_ids`` and
    bridge its final states to the decoder's initial state row."""
    xs = embed_rows(tape, model.embedding, ext.enc_ids)
    enc = bilstm_encode(tape, model.encoder, xs)
    # the three states before anything else: a moved allocation can shift peak RSS
    h_all, final_h, final_c = enc.h_concat, enc.final_h, enc.final_c
    enc_features = tape.matmul(h_all, tape.param(model.attn_w_enc), transpose_b=True)
    h0 = tape.tanh(linear(tape, model.bridge_w_h, model.bridge_b_h, final_h))
    c0 = tape.tanh(linear(tape, model.bridge_w_c, model.bridge_b_c, final_c))
    return EncodedArticle(h_all, enc_features, tape.concat([h0, c0], axis=1),
                          CopyIds(ext.src_ext_ids, ext.size))


@dataclass
class DecoderStep:
    """Node ids of the recurrent part over R decoder rows: the states
    s = [h | c], the contexts h*, the attention a and the switch p_gen, one
    row each.  With coverage, ``attention`` is the node ``a`` is sliced
    from, and ``penalties``, the (R x 1) coverage penalties in its last
    column, is built on the tape the first time it is read, and kept;
    without coverage both are None."""

    tape: Tape
    s: int
    h_star: int
    a: int
    p_gen: int
    attention: int | None

    @cached_property
    def penalties(self) -> int | None:
        if self.attention is None:
            return None
        n = self.tape.value(self.a).shape[1]
        return self.tape.slice(self.attention, cols=(n, n + 1))


def decoder_step(tape: Tape, model: SummarizerParams, art: EncodedArticle, xs: int,
                 s_prev: int, coverage: int | None, force_p_gen: float | None) -> DecoderStep:
    """The recurrent part of the decoder from the state row ``s_prev`` on
    the embedded inputs ``xs``, one row per step: LSTM, attention and p_gen.
    Shared by training, teacher-forced evaluation (all target rows at once)
    and decoding (one row).

    The LSTM's only input is the previous token, so it runs over all rows
    as one sequence, and attention over all rows is one ``attend`` call,
    with coverage from the (1 x n) ``coverage`` before the first row, or
    without it when ``coverage`` is None.  The vocabulary output never
    feeds back into the recurrence, so it is left to
    ``output_distribution``.  ``force_p_gen`` replaces the learned switch
    by a constant in [0, 1].
    """
    if force_p_gen is not None and not 0.0 <= force_p_gen <= 1.0:  # NaN fails too
        raise ValueError(f"force_p_gen must be a finite value in [0, 1], got {force_p_gen!r}")
    s = lstm_step(tape, model.decoder, xs, s_prev)
    a, h_star, attention = attend(tape, model, art.h_all, art.enc_features, s, coverage)
    if force_p_gen is None:
        p_gen = generation_prob(tape, model, h_star, s, xs)
    else:
        p_gen = tape.leaf(np.full((tape.value(xs).shape[0], 1), force_p_gen, dtype=tape.dtype))
    return DecoderStep(tape, s, h_star, a, p_gen, attention)


def output_distribution(tape: Tape, model: SummarizerParams, art: EncodedArticle,
                        step: DecoderStep) -> int:
    """The output part of a decoder step's rows: vocab projection, softmax,
    and the copy mix over the extended vocabulary.

    Teacher forcing hands it all T target rows, so a sequence makes one
    (T x hidden)·V_outᵀ product forward and one V_out product backward.
    """
    p_vocab = vocab_distribution(tape, model, step.s, step.h_star)
    return final_distribution(tape, step.p_gen, p_vocab, step.a, art.copy_ids)


def _teacher_forced(tape: Tape, model: SummarizerParams, ex: PreparedExample,
                    use_coverage: bool, force_p_gen: float | None):
    """Feed the reference summary as decoder input: the recurrent part runs
    on all target positions, then the output part on all of them.

    Returns (p_final, step): the (T x extended vocab) node and the
    ``DecoderStep`` over the T target rows.
    """
    art = encode_article(tape, model, ex.ext)
    xs = embed_rows(tape, model.embedding, ex.dec_in_ids)
    coverage = art.zero_coverage(tape) if use_coverage else None
    step = decoder_step(tape, model, art, xs, art.s0, coverage, force_p_gen)
    return output_distribution(tape, model, art, step), step


def sequence_loss(tape: Tape, model: SummarizerParams, ex: PreparedExample,
                  use_coverage: bool = False, cov_lambda: float = 1.0):
    """Teacher-forced mean step loss for one example.

    Returns (loss_node, nll_mean_node, cov_mean_node, step); the total is
    assembled as mean(nll) + lambda * mean(penalty) so the two components
    recombine exactly to the reported loss, and ``step`` is the
    ``DecoderStep`` over the T target rows.
    """
    p_final, step = _teacher_forced(tape, model, ex, use_coverage, None)
    nll_mean = tape.reduce_mean(tape.neg_log_pick(p_final, ex.target_ext_ids))
    if use_coverage:
        pen_mean = tape.reduce_mean(step.penalties)
        loss = tape.add(nll_mean, tape.scale(pen_mean, cov_lambda))
        return loss, nll_mean, pen_mean, step
    return nll_mean, nll_mean, None, step


TrainConfig = RunConfig  # an older name, still built by perfbench/workloads.py


def train_batch(model: SummarizerParams, batch: list[PreparedExample],
                cfg: RunConfig, use_coverage: bool = False) -> float:
    """One clipped Adagrad update on a batch (``optimizer_step``) with the
    config's ``lr``, ``clip_norm`` and ``coverage_lambda``; returns the mean
    loss, or raises NonFiniteError with every value unchanged."""
    if not batch:
        raise ValueError("train_batch: empty batch")

    def build(tape):
        losses = [
            sequence_loss(tape, model, ex, use_coverage=use_coverage,
                          cov_lambda=cfg.coverage_lambda)[0]
            for ex in batch
        ]
        return tape.reduce_mean(tape.concat(losses, axis=1))

    return optimizer_step(build, model.params(), cfg.lr, cfg.clip_norm)


def corpus_loss(model: SummarizerParams, examples: list[PreparedExample],
                use_coverage: bool = False, cov_lambda: float = 1.0) -> float:
    """Mean teacher-forced loss without touching parameters."""
    if not examples:
        raise ValueError("corpus_loss: no examples")
    total = 0.0
    for ex in examples:
        tape = Tape(record=False)
        loss, _, _, _ = sequence_loss(tape, model, ex, use_coverage, cov_lambda)
        total += float(tape.value(loss)[0, 0])
    return total / len(examples)


def token_prediction_accuracy(model: SummarizerParams, examples: list[PreparedExample],
                              force_p_gen: float | None = None,
                              use_coverage: bool = False) -> dict:
    """Teacher-forced argmax accuracy, overall and on OOV target positions."""
    correct = total = 0
    oov_correct = oov_total = 0
    for ex in examples:
        tape = Tape(record=False)
        p_final, _ = _teacher_forced(tape, model, ex, use_coverage, force_p_gen)
        for pred, target_id in zip(np.argmax(tape.value(p_final), axis=1), ex.target_ext_ids):
            hit = bool(int(pred) == target_id)
            correct += hit
            total += 1
            if target_id >= ex.ext.base.size:
                oov_correct += hit
                oov_total += 1
    return {
        "accuracy": correct / total if total else 0.0,
        "oov_accuracy": oov_correct / oov_total if oov_total else 0.0,
        "tokens": total,
        "oov_tokens": oov_total,
    }


# -- decoding -----------------------------------------------------------------


@dataclass
class Hypothesis:
    """A hypothesis of ``length`` tokens, held as one link: ``path`` is
    (the parent's path, token, trace), None before the first token.
    ``trace`` is that step's (a, coverage before, p_gen) handles, which no
    later step writes, or None without ``collect_traces``."""

    length: int = 0
    log_prob: float = 0.0
    state: int | None = None  # the decoder state row [h | c]
    coverage: int | None = None
    sb_count: int = 0
    path: tuple | None = None

    def score(self) -> float:
        return self.log_prob / max(1, self.length)


@dataclass
class DecodeResult:
    sentences: list[list[str]]
    token_ids: list[int]
    degenerate: bool
    traces: list[StepTrace] = field(default_factory=list)


_BANNED_STARTS = (Vocabulary.PAD, Vocabulary.START)


def _split_sentences(token_ids, ext: ExtendedVocab) -> tuple[list[list[str]], bool]:
    sentences: list[list[str]] = [[]]
    for i in token_ids:
        if i == Vocabulary.SB:
            sentences.append([])
        elif i != Vocabulary.STOP:
            sentences[-1].append(ext.token(i))
    sentences = sentences[:3]
    degenerate = len(sentences) < 3 or any(not s for s in sentences)
    while len(sentences) < 3:
        sentences.append([])
    return sentences, degenerate


def _top_k(x: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` largest entries of ``x``, largest first and ties by
    lower id: ``np.argsort(-x, kind="stable")[:k]`` without sorting all of x."""
    if k >= x.size:
        return np.argsort(-x, kind="stable")
    kth = np.partition(x, x.size - k)[x.size - k]
    ids = np.flatnonzero(x >= kth)
    return ids[np.argsort(-x[ids], kind="stable")[:k]]


def decode(model: SummarizerParams, article_tokens, vocab: Vocabulary,
           mode: str = "greedy", beam_size: int = 4, max_decode_len: int = 120,
           use_coverage: bool = False, force_p_gen: float | None = None,
           collect_traces: bool = False) -> DecodeResult:
    """Generate a three-sentence summary for one article.

    Beam search keeps ``beam_size`` live hypotheses with length-normalized
    final scoring; greedy decoding is beam search of width 1.  Output token
    ids live in the extended vocabulary and are resolved back to surface
    tokens, so copied out-of-vocabulary tokens survive.  The winner's links
    are walked once at the end; with ``collect_traces`` the walk builds one
    ``StepTrace`` per token of the winner, and no other.
    """
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
    ext = ExtendedVocab(vocab, article_tokens)
    tape = Tape(record=False)  # node handles are arrays: a step is freed once no beam holds it
    art = encode_article(tape, model, ext)
    beams = [Hypothesis(state=art.s0,
                        coverage=art.zero_coverage(tape) if use_coverage else None)]
    finished: list[Hypothesis] = []
    for t in range(max_decode_len):
        steps, candidates = [], []
        for h_idx, hyp in enumerate(beams):
            prev = hyp.path[1] if hyp.path else Vocabulary.START
            x_t = embed_rows(tape, model.embedding,
                             [prev if prev < model.vocab_size else Vocabulary.UNK])
            step = decoder_step(tape, model, art, x_t, hyp.state, hyp.coverage, force_p_gen)
            probs = tape.value(output_distribution(tape, model, art, step))[0]
            if not np.isfinite(probs).all():
                raise ValueError(f"decode: non-finite probabilities at step {t}")
            logps = np.log(probs.astype(np.float64) + PGEN_EPS)
            logps[list(_BANNED_STARTS)] = -np.inf
            steps.append(step)
            for token in _top_k(logps, 2 * width):
                candidates.append((-(hyp.log_prob + float(logps[token])), h_idx, int(token)))
        candidates.sort()
        parents, beams, kept_from = beams, [], []
        for neg_log_prob, h_idx, token in candidates:
            parent, step = parents[h_idx], steps[h_idx]
            trace = (step.a, parent.coverage, step.p_gen) if collect_traces else None
            nh = Hypothesis(parent.length + 1, -neg_log_prob, step.s, None,
                            parent.sb_count + (token == Vocabulary.SB), (parent.path, token, trace))
            if token == Vocabulary.STOP or nh.sb_count >= 3:
                finished.append(nh)
            else:
                beams.append(nh)
                kept_from.append(h_idx)
            if len(beams) >= width:
                break
        if not beams or len(finished) >= width or t + 1 == max_decode_len:
            break
        if use_coverage:  # one next coverage per parent, shared by its kept children
            added = {h_idx: tape.add(parents[h_idx].coverage, steps[h_idx].a)
                     for h_idx in dict.fromkeys(kept_from)}
            for nh, h_idx in zip(beams, kept_from):
                nh.coverage = added[h_idx]
    pool = finished if finished else beams
    best = max(pool, key=lambda h: (h.score(), -h.length))
    token_ids, traces, link = [], [], best.path
    while link is not None:
        link, token, trace = link
        token_ids.append(token)
        if collect_traces:
            a, coverage, p_gen = trace
            attention = tape.value(a)
            before = np.zeros(attention.shape) if coverage is None else tape.value(coverage)
            # a float32 sum, as decode traces have always been; the loss
            # reads step.penalties, summed in float64
            penalty = None if coverage is None else float(np.minimum(attention, before).sum())
            traces.append(StepTrace(attention, before, float(tape.value(p_gen)[0, 0]), penalty))
    token_ids.reverse()
    traces.reverse()
    sentences, degenerate = _split_sentences(token_ids, ext)
    return DecodeResult(sentences, token_ids, degenerate, traces)
