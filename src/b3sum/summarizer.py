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

import numpy as np

from .config import RunConfig
from .corpus import NewsPair, Vocabulary
from .layers import (
    BiLstmEncoder,
    EmbeddingTable,
    EncoderStates,
    LstmCell,
    bilstm_encode,
    embed_rows,
    linear,
    lstm_step,
    uniform_param,
    zeros_param,
)
from .tape import Parameter, Tape, optimizer_step

PGEN_EPS = 1e-12


class ExtendedVocab:
    """Base vocabulary plus this document's out-of-vocabulary source tokens."""

    def __init__(self, base: Vocabulary, article_tokens):
        self.base = base
        self.doc_oovs: list[str] = []
        seen = set()
        for t in article_tokens:
            if t not in base and t not in seen:
                seen.add(t)
                self.doc_oovs.append(t)
        self._oov_ids = {t: base.size + k for k, t in enumerate(self.doc_oovs)}

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
    """All learnable tensors of the summarization model."""

    def __init__(self, vocab_size: int, emb_dim: int, hidden_dim: int,
                 attn_dim: int | None = None, seed: int = 13):
        rng = np.random.default_rng(seed)
        attn_dim = attn_dim or hidden_dim
        self.vocab_size = vocab_size
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        self.attn_dim = attn_dim
        state_dim = 2 * hidden_dim       # decoder state s_t is [h; c]
        enc_dim = 2 * hidden_dim         # encoder h_i is [fwd; bwd]
        feat_dim = state_dim + enc_dim   # [s_t, h*_t]

        self.embedding = EmbeddingTable(rng, "emb", vocab_size, emb_dim)
        self.encoder = BiLstmEncoder(rng, "enc", emb_dim, hidden_dim)
        self.decoder = LstmCell(rng, "dec", emb_dim, hidden_dim)

        self.attn_v = uniform_param(rng, "attn.v", (1, attn_dim))
        self.attn_w_enc = uniform_param(rng, "attn.W_h", (attn_dim, enc_dim))
        self.attn_w_state = uniform_param(rng, "attn.W_s", (attn_dim, state_dim))
        self.attn_bias = zeros_param("attn.b_a", (1, attn_dim))
        self.attn_w_cov = uniform_param(rng, "attn.w_c", (1, attn_dim))

        self.proj_b_in = zeros_param("proj.b_in", (1, feat_dim))
        self.proj_v = uniform_param(rng, "proj.V", (hidden_dim, feat_dim))
        self.proj_b_mid = zeros_param("proj.b_mid", (1, hidden_dim))
        self.proj_v_out = uniform_param(rng, "proj.V_out", (vocab_size, hidden_dim))

        self.ptr_w_context = uniform_param(rng, "ptr.w_context", (1, enc_dim))
        self.ptr_w_state = uniform_param(rng, "ptr.w_state", (1, state_dim))
        self.ptr_w_input = uniform_param(rng, "ptr.w_input", (1, emb_dim))
        self.ptr_bias = zeros_param("ptr.b_g", (1, 1))

        self.bridge_w_h = uniform_param(rng, "bridge.W_h", (hidden_dim, enc_dim))
        self.bridge_b_h = zeros_param("bridge.b_h", (1, hidden_dim))
        self.bridge_w_c = uniform_param(rng, "bridge.W_c", (hidden_dim, enc_dim))
        self.bridge_b_c = zeros_param("bridge.b_c", (1, hidden_dim))

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


def attend(tape: Tape, model: SummarizerParams, h_all: int, enc_features: int, s_t: int,
           coverage: int | None, use_coverage: bool) -> tuple[int, int, int]:
    """Attention scores, distribution, and context vector for one step.

    ``h_all`` is the (n x 2*hidden) encoder-state node and ``enc_features``
    its (n x attn) features h_all·W_hᵀ, which do not depend on the step, so
    ``encode_article`` computes them once per article.  ``s_t`` is the 1-row
    decoder state, ``coverage`` a (1 x n) row of summed past attention.
    Returns node ids (e_t, a_t, h_star).
    """
    terms = [enc_features, tape.matmul(s_t, tape.param(model.attn_w_state), transpose_b=True)]
    if use_coverage:
        if coverage is None:
            raise ValueError("use_coverage=True requires a coverage node")
        terms.append(tape.matmul(tape.transpose(coverage), tape.param(model.attn_w_cov)))
    terms.append(tape.param(model.attn_bias))
    scores = tape.tanh_sum(terms)  # stores only the tanh, one (n x attn) array
    e_t = tape.transpose(tape.matmul(scores, tape.param(model.attn_v), transpose_b=True))
    a_t = tape.softmax(e_t)
    h_star = tape.matmul(a_t, h_all)
    return e_t, a_t, h_star


def vocab_distribution(tape: Tape, model: SummarizerParams, s_t: int, h_star: int) -> int:
    """Two stacked linear maps then softmax over the base vocabulary."""
    feat = tape.concat([s_t, h_star], axis=1)
    inner = tape.add(feat, tape.param(model.proj_b_in))
    mid = linear(tape, model.proj_v, model.proj_b_mid, inner)
    logits = tape.matmul(mid, tape.param(model.proj_v_out), transpose_b=True)
    return tape.softmax(logits)


def generation_prob(tape: Tape, model: SummarizerParams, h_star: int, s_t: int,
                    x_t: int) -> int:
    """Soft switch between generating and copying, in (0, 1)."""
    pre = tape.add(
        tape.add(
            tape.matmul(h_star, tape.param(model.ptr_w_context), transpose_b=True),
            tape.matmul(s_t, tape.param(model.ptr_w_state), transpose_b=True),
        ),
        tape.add(tape.matmul(x_t, tape.param(model.ptr_w_input), transpose_b=True),
                 tape.param(model.ptr_bias)),
    )
    return tape.sigmoid(pre)


def final_distribution(tape: Tape, p_gen: int, p_vocab: int, a_t: int,
                       src_ext_ids, n_oov: int) -> int:
    """Mix the generation and copy distributions over the extended vocab.

    ``src_ext_ids[i]`` is the extended-vocab id of source position i; the
    copy distribution puts attention weight i on that id.  Row r of
    ``p_gen``, ``p_vocab`` and ``a_t`` belongs to one step, and so does row r
    of the result.
    """
    n_src = tape.value(a_t).shape[1]
    if len(src_ext_ids) != n_src:
        raise ValueError(
            f"final_distribution: {n_src} attention weights vs "
            f"{len(src_ext_ids)} source positions"
        )
    ext_size = tape.value(p_vocab).shape[1] + n_oov
    if n_oov > 0:
        pad = tape.leaf(np.zeros((tape.value(p_vocab).shape[0], n_oov), dtype=tape.dtype))
        p_vocab = tape.concat([p_vocab, pad], axis=1)
    p_copy = tape.scatter_add(a_t, src_ext_ids, ext_size)
    one = tape.leaf(np.ones((1, 1), dtype=tape.dtype))
    inv_gate = tape.add(one, tape.scale(p_gen, -1.0))
    return tape.add(tape.mul(p_vocab, p_gen), tape.mul(p_copy, inv_gate))


def coverage_update(tape: Tape, coverage: int, a_t: int) -> int:
    """c^{t+1} = c^t + a^t (both 1 x n rows)."""
    if tape.value(coverage).shape != tape.value(a_t).shape:
        raise ValueError(
            f"coverage_update: shape mismatch {tape.value(coverage).shape} "
            f"vs {tape.value(a_t).shape}"
        )
    return tape.add(coverage, a_t)


def coverage_penalty(tape: Tape, a_t: int, coverage: int) -> int:
    """sum_i min(a_i, c_i); bounded by 1 because attention sums to 1."""
    return tape.reduce_sum(tape.elementwise_min(a_t, coverage))


# -- prepared examples and the teacher-forced loss ----------------------------


@dataclass
class PreparedExample:
    """A pair mapped to ids: encoder input, decoder input (teacher forcing),
    and extended-vocabulary targets ending in the stop token."""

    id: str
    enc_ids: list[int]
    src_ext_ids: list[int]
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
    enc_ids = vocab.encode(pair.article)
    src_ext_ids = [ext.id(t) for t in pair.article]
    target_tokens = target_token_sequence(pair)
    target_ext = [ext.id(t) for t in target_tokens] + [Vocabulary.STOP]
    target_base = vocab.encode(target_tokens) + [Vocabulary.STOP]
    dec_in = [Vocabulary.START] + target_base[:-1]
    return PreparedExample(
        id=pair.id,
        enc_ids=enc_ids,
        src_ext_ids=src_ext_ids,
        dec_in_ids=dec_in,
        target_ext_ids=target_ext,
        ext=ext,
    )


@dataclass
class StepTrace:
    attention: np.ndarray
    coverage_before: np.ndarray
    p_gen: float
    penalty: float | None


def _step_trace(tape: Tape, a_t: int, p_gen: int, coverage: int | None,
                penalty: float | None) -> StepTrace:
    attention = tape.value(a_t)
    return StepTrace(
        attention=attention.copy(),
        coverage_before=(
            tape.value(coverage).copy() if coverage is not None else np.zeros(attention.shape)
        ),
        p_gen=float(tape.value(p_gen)[0, 0]),
        penalty=penalty,
    )


@dataclass
class EncodedArticle:
    """Per-article decoder context: encoder states, their attention features,
    the bridged initial decoder state, and the source ids the copy
    distribution scatters onto."""

    enc: EncoderStates
    enc_features: int
    h0: int
    c0: int
    src_ext_ids: list[int]
    n_oov: int

    def zero_coverage(self, tape: Tape) -> int:
        return tape.leaf(np.zeros((1, self.enc.length), dtype=tape.dtype))


def encode_article(tape: Tape, model: SummarizerParams, enc_ids, src_ext_ids,
                   n_oov: int) -> EncodedArticle:
    """Run the encoder over base-vocab ``enc_ids`` and bridge its final
    states to the decoder's initial (h0, c0)."""
    xs = embed_rows(tape, model.embedding, enc_ids)
    enc = bilstm_encode(tape, model.encoder, xs)
    # must stay h_concat's first reader: the pinned float32 results assume
    # backward adds this node's adjoint to h_concat after every h_star's
    enc_features = tape.matmul(enc.h_concat, tape.param(model.attn_w_enc), transpose_b=True)
    h_final, c_final = enc.final
    h0 = tape.tanh(linear(tape, model.bridge_w_h, model.bridge_b_h, h_final))
    c0 = tape.tanh(linear(tape, model.bridge_w_c, model.bridge_b_c, c_final))
    return EncodedArticle(enc, enc_features, h0, c0, src_ext_ids, n_oov)


@dataclass
class DecoderStep:
    """Node ids of one step's recurrent part: the decoder state row s_t = [h_t; c_t],
    the context h*_t, the attention a_t, the switch p_gen and the LSTM state."""

    s_t: int
    h_star: int
    a_t: int
    p_gen: int
    state: tuple[int, int]


def decoder_step(tape: Tape, model: SummarizerParams, art: EncodedArticle, x_t: int,
                 state: tuple[int, int], coverage: int | None, use_coverage: bool,
                 force_p_gen: float | None) -> DecoderStep:
    """The recurrent part of one decoder step from the embedded input
    ``x_t``: LSTM, attention and p_gen, one row.  Shared by training,
    teacher-forced evaluation and decoding.

    The vocabulary output never feeds back into the recurrence, so it is
    left to ``output_distribution``.  ``force_p_gen`` replaces the learned
    switch by a constant.  The caller advances the coverage.
    """
    h_t, c_t = lstm_step(tape, model.decoder, x_t, *state)
    s_t = tape.concat([h_t, c_t], axis=1)
    _, a_t, h_star = attend(tape, model, art.enc.h_concat, art.enc_features, s_t, coverage,
                            use_coverage)
    if force_p_gen is None:
        p_gen = generation_prob(tape, model, h_star, s_t, x_t)
    else:
        p_gen = tape.leaf(np.full((1, 1), force_p_gen, dtype=tape.dtype))
    return DecoderStep(s_t, h_star, a_t, p_gen, (h_t, c_t))


def output_distribution(tape: Tape, model: SummarizerParams, art: EncodedArticle,
                        steps: list[DecoderStep]) -> int:
    """The output part of any number of decoder steps, one row each: vocab
    projection, softmax, and the copy mix over the extended vocabulary.

    The steps' rows are stacked, so teacher forcing makes one
    (T x hidden)·V_outᵀ product per sequence and backward one V_out
    product; ``concat`` of a single step adds no node.
    """
    def rows(ids):
        return tape.concat(ids, axis=0)

    p_vocab = vocab_distribution(tape, model, rows([s.s_t for s in steps]),
                                 rows([s.h_star for s in steps]))
    return final_distribution(tape, rows([s.p_gen for s in steps]), p_vocab,
                              rows([s.a_t for s in steps]), art.src_ext_ids, art.n_oov)


def _teacher_forced(tape: Tape, model: SummarizerParams, ex: PreparedExample,
                    use_coverage: bool, force_p_gen: float | None):
    """Feed the reference summary as decoder input: the recurrent part runs
    once per target position, then the output part once on all of them.

    Returns (p_final, steps, coverages, penalties): ``p_final`` is the
    (T x extended vocab) node, ``steps[t]`` the recurrent part of step t,
    ``coverages[t]`` the coverage before it and ``penalties[t]`` its
    coverage penalty, both None without coverage.
    """
    art = encode_article(tape, model, ex.enc_ids, ex.src_ext_ids, len(ex.ext.doc_oovs))
    coverage = art.zero_coverage(tape) if use_coverage else None
    state = (art.h0, art.c0)
    steps, coverages, penalties = [], [], []
    for x_t in embed_rows(tape, model.embedding, ex.dec_in_ids):
        step = decoder_step(tape, model, art, x_t, state, coverage, use_coverage, force_p_gen)
        state = step.state
        steps.append(step)
        coverages.append(coverage)
        penalties.append(coverage_penalty(tape, step.a_t, coverage) if use_coverage else None)
        if use_coverage:
            coverage = coverage_update(tape, coverage, step.a_t)
    return output_distribution(tape, model, art, steps), steps, coverages, penalties


def sequence_loss(tape: Tape, model: SummarizerParams, ex: PreparedExample,
                  use_coverage: bool = False, cov_lambda: float = 1.0,
                  force_p_gen: float | None = None,
                  collect_traces: bool = False):
    """Teacher-forced mean step loss for one example.

    Returns (loss_node, nll_mean_node, cov_mean_node, traces); the total is
    assembled as mean(nll) + lambda * mean(penalty) so the two components
    recombine exactly to the reported loss.
    """
    p_final, steps, coverages, penalties = _teacher_forced(tape, model, ex, use_coverage,
                                                           force_p_gen)
    traces = []
    if collect_traces:
        traces = [
            _step_trace(tape, step.a_t, step.p_gen, coverage,
                        float(tape.value(penalty)[0, 0]) if penalty is not None else None)
            for step, coverage, penalty in zip(steps, coverages, penalties)
        ]
    nll_mean = tape.reduce_mean(tape.neg_log_pick(p_final, ex.target_ext_ids))
    if use_coverage:
        pen_mean = tape.reduce_mean(tape.concat(penalties, axis=1))
        loss = tape.add(nll_mean, tape.scale(pen_mean, cov_lambda))
        return loss, nll_mean, pen_mean, traces
    return nll_mean, nll_mean, None, traces


TrainConfig = RunConfig  # an older name, still built by perfbench/workloads.py


def train_batch(model: SummarizerParams, batch: list[PreparedExample],
                cfg: RunConfig, use_coverage: bool = False) -> float:
    """One clipped Adagrad update on a batch (``optimizer_step``) with the
    config's ``lr``, ``clip_norm`` and ``coverage_lambda``; returns the mean
    loss, or raises NonFiniteError with every value unchanged."""
    if not batch:
        raise ValueError("train_batch: empty batch")
    tape = Tape()
    losses = [
        sequence_loss(tape, model, ex, use_coverage=use_coverage,
                      cov_lambda=cfg.coverage_lambda)[0]
        for ex in batch
    ]
    total = tape.reduce_mean(tape.concat(losses, axis=1))
    return optimizer_step(tape, total, model.params(), cfg.lr, cfg.clip_norm)


def corpus_loss(model: SummarizerParams, examples: list[PreparedExample],
                use_coverage: bool = False, cov_lambda: float = 1.0) -> float:
    """Mean teacher-forced loss without touching parameters."""
    if not examples:
        raise ValueError("corpus_loss: no examples")
    total = 0.0
    for ex in examples:
        tape = Tape()
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
        tape = Tape()
        p_final, _, _, _ = _teacher_forced(tape, model, ex, use_coverage, force_p_gen)
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
    tokens: list[int] = field(default_factory=list)
    log_prob: float = 0.0
    state: tuple[int, int] | None = None
    coverage: int | None = None
    sb_count: int = 0
    finished: bool = False
    traces: list[StepTrace] = field(default_factory=list)

    def score(self) -> float:
        return self.log_prob / max(1, len(self.tokens))


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


def _advance(hyp: Hypothesis, token: int, log_prob: float, state, coverage, traces) -> Hypothesis:
    sb_count = hyp.sb_count + (token == Vocabulary.SB)
    return Hypothesis(tokens=hyp.tokens + [token], log_prob=log_prob,
                      state=state, coverage=coverage, sb_count=sb_count,
                      finished=token == Vocabulary.STOP or sb_count >= 3, traces=traces)


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
    tokens, so copied out-of-vocabulary tokens survive.  With
    ``collect_traces`` the result carries one ``StepTrace`` per token of the
    winning hypothesis.
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
    tape = Tape()
    art = encode_article(tape, model, vocab.encode(article_tokens),
                         [ext.id(t) for t in article_tokens], len(ext.doc_oovs))
    beams = [Hypothesis(state=(art.h0, art.c0),
                        coverage=art.zero_coverage(tape) if use_coverage else None)]
    finished: list[Hypothesis] = []
    for t in range(max_decode_len):
        steps, candidates = [], []
        for h_idx, hyp in enumerate(beams):
            prev = hyp.tokens[-1] if hyp.tokens else Vocabulary.START
            x_t = embed_rows(tape, model.embedding,
                             [prev if prev < model.vocab_size else Vocabulary.UNK])[0]
            step = decoder_step(tape, model, art, x_t, hyp.state, hyp.coverage,
                                use_coverage, force_p_gen)
            a_t = step.a_t
            coverage = coverage_update(tape, hyp.coverage, a_t) if use_coverage else None
            probs = tape.value(output_distribution(tape, model, art, [step]))[0]
            if not np.isfinite(probs).all():
                raise ValueError(f"decode: non-finite probabilities at step {t}")
            logps = np.log(probs.astype(np.float64) + PGEN_EPS)
            logps[list(_BANNED_STARTS)] = -np.inf
            traces = hyp.traces
            if collect_traces:
                penalty = None if hyp.coverage is None else float(
                    np.minimum(tape.value(a_t), tape.value(hyp.coverage)).sum())
                traces = traces + [_step_trace(tape, a_t, step.p_gen, hyp.coverage, penalty)]
            steps.append((step.state, coverage, traces))
            for token in _top_k(logps, 2 * width):
                candidates.append((-(hyp.log_prob + float(logps[token])), h_idx, int(token)))
        candidates.sort()
        parents, beams = beams, []
        for neg_log_prob, h_idx, token in candidates:
            nh = _advance(parents[h_idx], token, -neg_log_prob, *steps[h_idx])
            (finished if nh.finished else beams).append(nh)
            if len(beams) >= width:
                break
        if not beams or len(finished) >= width:
            break
    pool = finished if finished else beams
    best = max(pool, key=lambda h: (h.score(), -len(h.tokens)))
    sentences, degenerate = _split_sentences(best.tokens, ext)
    return DecodeResult(sentences, best.tokens, degenerate, best.traces)
