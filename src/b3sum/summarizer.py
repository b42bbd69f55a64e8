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

from .corpus import NewsPair, Vocabulary
from .layers import (
    BiLstmEncoder,
    EmbeddingTable,
    EncoderStates,
    LstmCell,
    bilstm_encode,
    embed_rows,
    lstm_step,
    uniform_param,
    zeros_param,
)
from .tape import NonFiniteError, Parameter, Tape, adagrad_step, clip_global_norm, zero_grads

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

    def param_dict(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.params()}


# -- single decoding step pieces ---------------------------------------------


def attend(tape: Tape, model: SummarizerParams, h_all: int, s_t: int,
           coverage: int | None, use_coverage: bool) -> tuple[int, int, int]:
    """Attention scores, distribution, and context vector for one step.

    ``h_all`` is the (n x 2*hidden) encoder-state node, ``s_t`` the 1-row
    decoder state, ``coverage`` a (1 x n) row of summed past attention.
    Returns node ids (e_t, a_t, h_star).  The encoder features W_h h_i do
    not depend on the step, so they are computed once per (tape, h_all).
    """
    w_h = model.attn_w_enc
    enc_features = tape.shared(
        ("attend.enc_features", id(w_h), h_all),
        lambda: tape.matmul(h_all, tape.param(w_h), transpose_b=True),
    )
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
    mid = tape.add(tape.matmul(inner, tape.param(model.proj_v), transpose_b=True),
                   tape.param(model.proj_b_mid))
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
    copy distribution puts attention weight i on that id.
    """
    n_src = tape.value(a_t).shape[1]
    if len(src_ext_ids) != n_src:
        raise ValueError(
            f"final_distribution: {n_src} attention weights vs "
            f"{len(src_ext_ids)} source positions"
        )
    ext_size = tape.value(p_vocab).shape[1] + n_oov
    if n_oov > 0:
        pad = tape.leaf(np.zeros((1, n_oov), dtype=tape.dtype))
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
    """Per-article decoder context: encoder states, the bridged initial
    decoder state, and the source ids the copy distribution scatters onto."""

    enc: EncoderStates
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
    h_cat = tape.concat([enc.fwd_final[0], enc.bwd_first[0]], axis=1)
    c_cat = tape.concat([enc.fwd_final[1], enc.bwd_first[1]], axis=1)
    h0 = tape.tanh(tape.add(tape.matmul(h_cat, tape.param(model.bridge_w_h), transpose_b=True),
                            tape.param(model.bridge_b_h)))
    c0 = tape.tanh(tape.add(tape.matmul(c_cat, tape.param(model.bridge_w_c), transpose_b=True),
                            tape.param(model.bridge_b_c)))
    return EncodedArticle(enc, h0, c0, src_ext_ids, n_oov)


def decoder_step(tape: Tape, model: SummarizerParams, art: EncodedArticle, x_t: int,
                 state: tuple[int, int], coverage: int | None, use_coverage: bool,
                 force_p_gen: float | None) -> tuple[int, int, int, tuple[int, int]]:
    """One decoder step from the embedded input ``x_t``, shared by training,
    teacher-forced evaluation and decoding.

    Returns node ids (p_final, a_t, p_gen, (h_t, c_t)); ``p_final`` is over
    the extended vocabulary.  ``force_p_gen`` replaces the learned switch by
    a constant.  The caller advances the coverage.
    """
    h_t, c_t = lstm_step(tape, model.decoder, x_t, *state)
    s_t = tape.concat([h_t, c_t], axis=1)
    _, a_t, h_star = attend(tape, model, art.enc.h_concat, s_t, coverage, use_coverage)
    p_vocab = vocab_distribution(tape, model, s_t, h_star)
    if force_p_gen is None:
        p_gen = generation_prob(tape, model, h_star, s_t, x_t)
    else:
        p_gen = tape.leaf(np.full((1, 1), force_p_gen, dtype=tape.dtype))
    p_final = final_distribution(tape, p_gen, p_vocab, a_t, art.src_ext_ids, art.n_oov)
    return p_final, a_t, p_gen, (h_t, c_t)


def _teacher_forced(tape: Tape, model: SummarizerParams, ex: PreparedExample,
                    use_coverage: bool, force_p_gen: float | None):
    """Yield (target_id, p_final, a_t, p_gen, coverage before the step) for
    each target position, feeding the reference summary as decoder input."""
    art = encode_article(tape, model, ex.enc_ids, ex.src_ext_ids, len(ex.ext.doc_oovs))
    coverage = art.zero_coverage(tape) if use_coverage else None
    dec_embs = embed_rows(tape, model.embedding, ex.dec_in_ids)
    state = (art.h0, art.c0)
    for t, target_id in enumerate(ex.target_ext_ids):
        p_final, a_t, p_gen, state = decoder_step(tape, model, art, dec_embs[t], state,
                                                  coverage, use_coverage, force_p_gen)
        yield target_id, p_final, a_t, p_gen, coverage
        if use_coverage:
            coverage = coverage_update(tape, coverage, a_t)


def sequence_loss(tape: Tape, model: SummarizerParams, ex: PreparedExample,
                  use_coverage: bool = False, cov_lambda: float = 1.0,
                  force_p_gen: float | None = None,
                  collect_traces: bool = False):
    """Teacher-forced mean step loss for one example.

    Returns (loss_node, nll_mean_node, cov_mean_node, traces); the total is
    assembled as mean(nll) + lambda * mean(penalty) so the two components
    recombine exactly to the reported loss.
    """
    nll_nodes = []
    pen_nodes = []
    traces = []
    for target_id, p_final, a_t, p_gen, coverage in _teacher_forced(
            tape, model, ex, use_coverage, force_p_gen):
        nll_nodes.append(tape.neg_log_pick(p_final, target_id))
        penalty = None
        if use_coverage:
            penalty = coverage_penalty(tape, a_t, coverage)
            pen_nodes.append(penalty)
        if collect_traces:
            traces.append(_step_trace(
                tape, a_t, p_gen, coverage,
                float(tape.value(penalty)[0, 0]) if penalty is not None else None,
            ))

    nll_mean = tape.reduce_mean(tape.concat(nll_nodes, axis=1))
    if use_coverage:
        pen_mean = tape.reduce_mean(tape.concat(pen_nodes, axis=1))
        loss = tape.add(nll_mean, tape.scale(pen_mean, cov_lambda))
        return loss, nll_mean, pen_mean, traces
    return nll_mean, nll_mean, None, traces


@dataclass
class TrainConfig:
    lr: float = 0.15
    clip_norm: float = 2.0
    batch_size: int = 16
    coverage_lambda: float = 1.0
    coverage_from_step: int | None = None
    seed: int = 13

    def coverage_at(self, step: int) -> bool:
        return self.coverage_from_step is not None and step >= self.coverage_from_step


def train_batch(model: SummarizerParams, batch: list[PreparedExample],
                cfg: TrainConfig, use_coverage: bool = False) -> float:
    """One optimizer update on a batch; returns the mean loss.

    A non-finite loss or gradient raises NonFiniteError (naming the
    parameter for a gradient) before any parameter value changes.
    """
    if not batch:
        raise ValueError("train_batch: empty batch")
    tape = Tape()
    losses = []
    for ex in batch:
        loss, _, _, _ = sequence_loss(
            tape, model, ex, use_coverage=use_coverage, cov_lambda=cfg.coverage_lambda
        )
        losses.append(loss)
    total = tape.reduce_mean(tape.concat(losses, axis=1))
    mean_loss = float(tape.value(total)[0, 0])
    if not np.isfinite(mean_loss):
        raise NonFiniteError(f"train_batch: non-finite loss {mean_loss}")
    tape.backward(total)
    params = model.params()
    try:
        clip_global_norm(params, cfg.clip_norm)
    except NonFiniteError as exc:
        zero_grads(params)  # leave no half-made step behind
        raise NonFiniteError(f"train_batch: {exc}") from exc
    adagrad_step(params, cfg.lr)
    return mean_loss


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
        for target_id, p_final, _, _, _ in _teacher_forced(tape, model, ex, use_coverage,
                                                            force_p_gen):
            hit = bool(int(np.argmax(tape.value(p_final)[0])) == target_id)
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
    article_ids = [ext.id(t) for t in article_tokens]
    enc_ids = [i if i < model.vocab_size else Vocabulary.UNK for i in article_ids]
    tape = Tape()
    art = encode_article(tape, model, enc_ids, article_ids, len(ext.doc_oovs))
    beams = [Hypothesis(state=(art.h0, art.c0),
                        coverage=art.zero_coverage(tape) if use_coverage else None)]
    finished: list[Hypothesis] = []
    for t in range(max_decode_len):
        steps, candidates = [], []
        for h_idx, hyp in enumerate(beams):
            prev = hyp.tokens[-1] if hyp.tokens else Vocabulary.START
            x_t = embed_rows(tape, model.embedding,
                             [prev if prev < model.vocab_size else Vocabulary.UNK])[0]
            p_final, a_t, p_gen, state = decoder_step(tape, model, art, x_t, hyp.state,
                                                      hyp.coverage, use_coverage, force_p_gen)
            coverage = coverage_update(tape, hyp.coverage, a_t) if use_coverage else None
            probs = tape.value(p_final)[0]
            if not np.isfinite(probs).all():
                raise ValueError(f"decode: non-finite probabilities at step {t}")
            logps = np.log(probs.astype(np.float64) + PGEN_EPS)
            logps[list(_BANNED_STARTS)] = -np.inf
            traces = hyp.traces
            if collect_traces:
                penalty = None if hyp.coverage is None else float(
                    np.minimum(tape.value(a_t), tape.value(hyp.coverage)).sum())
                traces = traces + [_step_trace(tape, a_t, p_gen, hyp.coverage, penalty)]
            steps.append((state, coverage, traces))
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
