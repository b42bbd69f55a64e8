"""Binary summary-structure classifier over a BiLSTM encoding.

One decision layer, a (2 x 2*hidden) linear map whose row 0 scores parallel
and row 1 sequence, reads the encoder's final hidden state (its final
forward state joined to its first-position backward state), and a two-way
softmax turns its logits into the decision.  Ties resolve to parallel, the
majority class.  Training inputs are either the summary (its three sentences
joined by the boundary token) or the truncated article.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import BINARY_CLASSES, NewsPair, Vocabulary
from .layers import BiLstmEncoder, EmbeddingTable, ParamInit, bilstm_encode, embed_rows, linear, zeros_param
from .metrics import classification_report
from .summarizer import target_token_sequence
from .tape import Parameter, Tape, optimizer_step, train_steps


class ClassifierParams:
    """The classifier's tensors, drawn from ``seed`` as one stream
    (``layers.ParamInit``); with ``seed=None`` every tensor is zeros, made
    without a draw, for a checkpoint to fill."""

    def __init__(self, vocab_size: int, emb_dim: int = 256, hidden_dim: int = 256,
                 seed: int | None = 13):
        init = ParamInit(seed)
        self.vocab_size = vocab_size
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        self.embedding = EmbeddingTable(init, "cls.emb", vocab_size, emb_dim)
        self.encoder = BiLstmEncoder(init, "cls.enc", emb_dim, hidden_dim)
        self.decision_w = init.uniform("cls.W_d", (2, 2 * hidden_dim))  # row 0 parallel, 1 sequence
        self.decision_b = zeros_param("cls.b_d", (1, 2))
        init.draw()

    def params(self) -> list[Parameter]:
        return self.embedding.params() + self.encoder.params() + [self.decision_w, self.decision_b]


def encode_text(tape: Tape, model: ClassifierParams, ids) -> int:
    """(1 x 2*hidden) node: the encoder's final hidden state."""
    return bilstm_encode(tape, model.encoder, embed_rows(tape, model.embedding, ids)).final_h


def decision_distribution(tape: Tape, model: ClassifierParams, ids) -> int:
    """(1 x 2) node: [p(parallel), p(sequence)] for the token ids."""
    h = encode_text(tape, model, ids)
    return tape.softmax(linear(tape, model.decision_w, model.decision_b, h))


@dataclass
class ClassifyResult:
    p_parallel: float
    p_sequence: float
    label: str

    @property
    def confidence(self) -> float:
        return max(self.p_parallel, self.p_sequence)


def classify(model: ClassifierParams, ids) -> ClassifyResult:
    tape = Tape(record=False)
    probs = tape.value(decision_distribution(tape, model, ids))[0]
    p_par, p_seq = float(probs[0]), float(probs[1])
    label = "parallel" if p_par >= p_seq else "sequence"  # ties -> parallel
    return ClassifyResult(p_parallel=p_par, p_sequence=p_seq, label=label)


# -- training -----------------------------------------------------------------


@dataclass
class LabeledExample:
    ids: list[int]
    gold: int  # 0 parallel, 1 sequence


def classifier_input_tokens(pair: NewsPair, input_kind: str, max_src_len: int = 400) -> list[str]:
    if input_kind == "summary":
        return target_token_sequence(pair)
    if input_kind == "article":
        return pair.article[:max_src_len]
    raise ValueError(f"input_kind must be 'summary' or 'article', got {input_kind!r}")


def prepare_labeled(pairs, vocab: Vocabulary, input_kind: str,
                    max_src_len: int = 400) -> list[LabeledExample]:
    out = []
    for p in pairs:
        if p.label is None:
            raise ValueError(f"pair {p.id} has no structure label")
        out.append(
            LabeledExample(
                ids=vocab.encode(classifier_input_tokens(p, input_kind, max_src_len)),
                gold=p.label.binary_index,
            )
        )
    return out


@dataclass
class ClassifierTrainConfig:
    emb_dim: int = 256
    hidden_dim: int = 256
    lr: float = 0.01
    batch_size: int = 16
    epochs: int = 10
    seed: int = 13


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    heldout: dict | None = None


def evaluate_classifier(model: ClassifierParams, examples: list[LabeledExample]) -> dict:
    preds = [classify(model, ex.ids).label for ex in examples]
    golds = [BINARY_CLASSES[ex.gold] for ex in examples]
    return classification_report(preds, golds)


def train_classifier(model: ClassifierParams, train: list[LabeledExample],
                     heldout: list[LabeledExample] | None,
                     cfg: ClassifierTrainConfig) -> TrainReport:
    """Cross-entropy Adagrad training, unclipped; rejects single-class corpora.
    A non-finite step raises NonFiniteError naming it, counted from 0 across
    epochs."""
    if len({ex.gold for ex in train}) < 2:
        raise ValueError("training corpus contains a single class")
    params = model.params()

    def step(_, idx):
        def build(tape):
            losses = [
                tape.neg_log_pick(decision_distribution(tape, model, train[i].ids), train[i].gold)
                for i in idx
            ]
            return tape.reduce_mean(tape.concat(losses, axis=1))

        return optimizer_step(build, params, cfg.lr)

    per_epoch = len(range(0, len(train), cfg.batch_size))
    step_losses = train_steps(step, len(train), cfg.batch_size, cfg.seed,
                              cfg.epochs * per_epoch, "classifier")
    report = TrainReport()
    for start in range(0, len(step_losses), per_epoch):
        epoch_loss = 0.0  # added left to right: sum() compensates from Python 3.12
        for loss in step_losses[start : start + per_epoch]:
            epoch_loss += loss
        report.epoch_losses.append(epoch_loss / per_epoch)
    if heldout:
        report.heldout = evaluate_classifier(model, heldout)
    return report


# -- under-sampling precision tuning -----------------------------------------

UNDERSAMPLE_GRID = tuple(round(r, 1) for r in np.arange(1.0, 0.05, -0.1))


@dataclass
class UndersampleResult:
    ratio: float
    model: ClassifierParams
    heldout: dict
    qualified: bool
    trials: list[dict] = field(default_factory=list)


def undersample_tune(train: list[LabeledExample], heldout: list[LabeledExample],
                     cfg: ClassifierTrainConfig, vocab_size: int,
                     target_precision: float = 0.8) -> UndersampleResult:
    """Shrink the majority class along a fixed ratio grid until held-out
    precision clears the target for both classes.

    Each grid point trains a fresh model from the same seed on the majority
    class subsampled to ratio * its full size.  Among qualifying ratios the
    one with the best mean recall wins (larger data on ties); if none
    qualifies the max-min-precision ratio is returned flagged.
    """
    if len({ex.gold for ex in heldout}) < 2:
        raise ValueError("held-out set must contain both classes")
    by_class: dict[int, list[LabeledExample]] = {0: [], 1: []}
    for ex in train:
        by_class[ex.gold].append(ex)
    majority = 0 if len(by_class[0]) >= len(by_class[1]) else 1
    rng = np.random.default_rng(cfg.seed)
    majority_order = rng.permutation(len(by_class[majority]))

    def by_recall(t):
        return (t["mean_recall"], t["ratio"])

    def by_precision(t):
        return (t["min_precision"], t["ratio"])

    # Only the running best trial of each rule keeps its model, and the
    # model's Adagrad state, alive.  No two ratios are equal, so ">" picks
    # what max() over all the trials would.
    trials = []
    best_qualifying = best_overall = None  # (trial, model, report)
    for ratio in UNDERSAMPLE_GRID:
        keep = max(1, int(round(ratio * len(by_class[majority]))))
        subset = [by_class[majority][i] for i in majority_order[:keep]] + by_class[1 - majority]
        model = ClassifierParams(vocab_size, cfg.emb_dim, cfg.hidden_dim, seed=cfg.seed)
        train_classifier(model, subset, None, cfg)
        rep = evaluate_classifier(model, heldout)
        precisions = [rep["per_class"][c]["precision"] for c in BINARY_CLASSES]
        recalls = [rep["per_class"][c]["recall"] for c in BINARY_CLASSES]
        trial = {"ratio": ratio, "min_precision": min(precisions),
                 "mean_recall": sum(recalls) / 2.0,
                 "qualified": all(p > target_precision for p in precisions)}
        trials.append(trial)
        if trial["qualified"] and (best_qualifying is None
                                   or by_recall(trial) > by_recall(best_qualifying[0])):
            best_qualifying = (trial, model, rep)
        if best_overall is None or by_precision(trial) > by_precision(best_overall[0]):
            best_overall = (trial, model, rep)
        del model  # a beaten model goes before the next one is built
    qualified = best_qualifying is not None
    trial, model, rep = best_qualifying if qualified else best_overall
    return UndersampleResult(ratio=trial["ratio"], model=model, heldout=rep,
                             qualified=qualified, trials=trials)
