"""Binary summary-structure classifier over a BiLSTM encoding.

One linear head per structure type reads the encoder's final hidden state
(its final forward state joined to its first-position backward state), and
the first logit of each head enters a shared two-way softmax.  Ties resolve to
parallel, the majority class.  Training inputs are either the summary (its
three sentences joined by the boundary token) or the truncated article.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import BINARY_CLASSES, NewsPair, Vocabulary
from .layers import BiLstmEncoder, EmbeddingTable, bilstm_encode, embed_rows, linear, uniform_param, zeros_param
from .metrics import classification_report
from .summarizer import target_token_sequence
from .tape import Parameter, Tape, optimizer_step, train_steps


class ClassifierParams:
    def __init__(self, vocab_size: int, emb_dim: int = 256, hidden_dim: int = 256,
                 seed: int = 13):
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        self.embedding = EmbeddingTable(rng, "cls.emb", vocab_size, emb_dim)
        self.encoder = BiLstmEncoder(rng, "cls.enc", emb_dim, hidden_dim)
        # One head per structure type; the decision softmax reads the first
        # logit of each, so both heads stay distinct parameters.
        self.head_parallel_w = uniform_param(rng, "cls.W_p", (2, 2 * hidden_dim))
        self.head_parallel_b = zeros_param("cls.b_p", (1, 2))
        self.head_sequence_w = uniform_param(rng, "cls.W_s", (2, 2 * hidden_dim))
        self.head_sequence_b = zeros_param("cls.b_s", (1, 2))

    def params(self) -> list[Parameter]:
        return (
            self.embedding.params()
            + self.encoder.params()
            + [self.head_parallel_w, self.head_parallel_b,
               self.head_sequence_w, self.head_sequence_b]
        )


def encode_text(tape: Tape, model: ClassifierParams, ids) -> int:
    """(1 x 2*hidden) node: the encoder's final hidden state."""
    if not ids:
        raise ValueError("encode_text: empty token sequence")
    return bilstm_encode(tape, model.encoder, embed_rows(tape, model.embedding, ids)).final[0]


def decision_distribution(tape: Tape, model: ClassifierParams, ids) -> int:
    h = encode_text(tape, model, ids)
    logit_parallel = linear(tape, model.head_parallel_w, model.head_parallel_b, h)
    logit_sequence = linear(tape, model.head_sequence_w, model.head_sequence_b, h)
    # first logit of each head -> shared 2-way softmax
    heads = tape.transpose(tape.concat([logit_parallel, logit_sequence], axis=0))
    return tape.softmax(tape.gather_rows(heads, (0,)))


@dataclass
class ClassifyResult:
    p_parallel: float
    p_sequence: float
    label: str

    @property
    def confidence(self) -> float:
        return max(self.p_parallel, self.p_sequence)


def classify(model: ClassifierParams, ids) -> ClassifyResult:
    tape = Tape()
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
        tape = Tape()
        losses = [
            tape.neg_log_pick(decision_distribution(tape, model, train[i].ids), train[i].gold)
            for i in idx
        ]
        return optimizer_step(tape, tape.reduce_mean(tape.concat(losses, axis=1)), params, cfg.lr)

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

    trials = []
    for ratio in UNDERSAMPLE_GRID:
        keep = max(1, int(round(ratio * len(by_class[majority]))))
        subset = [by_class[majority][i] for i in majority_order[:keep]] + by_class[1 - majority]
        model = ClassifierParams(vocab_size, cfg.emb_dim, cfg.hidden_dim, seed=cfg.seed)
        train_classifier(model, subset, None, cfg)
        rep = evaluate_classifier(model, heldout)
        precisions = [rep["per_class"][c]["precision"] for c in BINARY_CLASSES]
        recalls = [rep["per_class"][c]["recall"] for c in BINARY_CLASSES]
        trials.append(
            {
                "ratio": ratio,
                "model": model,
                "report": rep,
                "min_precision": min(precisions),
                "mean_recall": sum(recalls) / 2.0,
                "qualified": all(p > target_precision for p in precisions),
            }
        )

    qualifying = [t for t in trials if t["qualified"]]
    if qualifying:
        best = max(qualifying, key=lambda t: (t["mean_recall"], t["ratio"]))
        qualified = True
    else:
        best = max(trials, key=lambda t: (t["min_precision"], t["ratio"]))
        qualified = False
    return UndersampleResult(
        ratio=best["ratio"],
        model=best["model"],
        heldout=best["report"],
        qualified=qualified,
        trials=[{k: t[k] for k in ("ratio", "min_precision", "mean_recall", "qualified")} for t in trials],
    )
