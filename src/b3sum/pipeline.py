"""Pretrain -> auto-label -> fine-tune -> route, as one resumable pipeline.

A base summarizer is pretrained on all pairs, the summary classifier labels
the training summaries, one sub-model is fine-tuned per structure type, and
at inference an article classifier picks which sub-model decodes.  Every
stage writes its artifacts plus a JSON manifest so later stages can resume
from files.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import checkpoint_digest, restore_params, save_checkpoint, tensor_map
from .classifier import ClassifierParams, classifier_input_tokens, classify
from .config import RunConfig
from .corpus import NewsPair, Vocabulary
from .summarizer import (
    DecodeResult,
    PreparedExample,
    SummarizerParams,
    TrainConfig,
    decode,
    prepare_pair,
    train_batch,
)
from .tape import NonFiniteError

log = logging.getLogger("b3sum.pipeline")


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        lr=cfg.lr,
        clip_norm=cfg.clip_norm,
        batch_size=cfg.batch_size,
        coverage_lambda=cfg.coverage_lambda,
        coverage_from_step=cfg.coverage_from_step,
        seed=cfg.seed,
    )


def new_summarizer(vocab_size: int, cfg: RunConfig) -> SummarizerParams:
    return SummarizerParams(
        vocab_size, cfg.emb_dim, cfg.hidden_dim, cfg.attn_dim, seed=cfg.seed
    )


def _train_steps(model: SummarizerParams, prepared: list[PreparedExample],
                 cfg: RunConfig, steps: int, start_step: int = 0) -> list[float]:
    tc = _train_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    losses: list[float] = []
    step = start_step
    while len(losses) < steps:
        order = rng.permutation(len(prepared))
        for start in range(0, len(prepared), tc.batch_size):
            if len(losses) >= steps:
                break
            batch = [prepared[i] for i in order[start : start + tc.batch_size]]
            try:
                losses.append(train_batch(model, batch, tc, use_coverage=tc.coverage_at(step)))
            except NonFiniteError as exc:
                raise NonFiniteError(f"training step {step}: {exc}") from exc
            step += 1
    return losses


def pretrain(pairs: list[NewsPair], vocab: Vocabulary, cfg: RunConfig, steps: int,
             out_path=None) -> tuple[SummarizerParams, dict]:
    """Train the shared base model on all pairs for a number of optimizer
    steps; returns the model and a provenance record."""
    if not pairs:
        raise ValueError("pretrain: empty corpus")
    prepared = [prepare_pair(p, vocab) for p in pairs]
    model = new_summarizer(vocab.size, cfg)
    losses = _train_steps(model, prepared, cfg, steps)
    info = {
        "stage": "pretrain",
        "steps": steps,
        "pairs": len(pairs),
        "config_hash": cfg.hash_hex(),
        "final_loss": losses[-1] if losses else None,
    }
    if out_path is not None:
        save_checkpoint(tensor_map(model.params()), out_path, cfg.hash_bytes())
        info["checkpoint"] = str(out_path)
        info["checkpoint_digest"] = checkpoint_digest(out_path)
    return model, info


def auto_label_corpus(summary_classifier: ClassifierParams, cls_vocab: Vocabulary,
                      pairs: list[NewsPair], tau: float):
    """Split training pairs by classified summary structure.

    A pair lands in the subset of its argmax label only when the classifier's
    confidence reaches tau; everything else stays unlabeled.  Returns
    (parallel, sequence, rest, counts).
    """
    parallel: list[NewsPair] = []
    sequence: list[NewsPair] = []
    rest: list[NewsPair] = []
    for p in pairs:
        ids = cls_vocab.encode(classifier_input_tokens(p, "summary"))
        res = classify(summary_classifier, ids)
        if res.confidence >= tau:
            (parallel if res.label == "parallel" else sequence).append(p)
        else:
            rest.append(p)
    counts = {"parallel": len(parallel), "sequence": len(sequence), "rest": len(rest)}
    return parallel, sequence, rest, counts


def finetune(base_checkpoint, subset: list[NewsPair], label: str, vocab: Vocabulary,
             cfg: RunConfig, steps: int, out_path=None) -> tuple[SummarizerParams, dict]:
    """Continue training from the base checkpoint on one structure subset.

    Optimizer accumulators restart from their initial value (a fresh model is
    built and only tensor values are restored), so fine-tuning is not scaled
    down by stale pretraining statistics.
    """
    if not subset:
        raise ValueError(
            f"finetune({label}): empty subset; lower tau so auto-labeling keeps more pairs"
        )
    tensors, _ = _load_base(base_checkpoint, cfg)
    model = new_summarizer(vocab.size, cfg)
    restore_params(model.params(), tensors)
    prepared = [prepare_pair(p, vocab) for p in subset]
    losses = _train_steps(model, prepared, cfg, steps)
    info = {
        "stage": f"finetune-{label}",
        "steps": steps,
        "pairs": len(subset),
        "base_digest": checkpoint_digest(base_checkpoint),
        "config_hash": cfg.hash_hex(),
        "final_loss": losses[-1] if losses else None,
    }
    if out_path is not None:
        save_checkpoint(tensor_map(model.params()), out_path, cfg.hash_bytes())
        info["checkpoint"] = str(out_path)
        info["checkpoint_digest"] = checkpoint_digest(out_path)
    return model, info


def _load_base(base_checkpoint, cfg: RunConfig):
    from .checkpoint import load_checkpoint

    return load_checkpoint(base_checkpoint, expect_hash=cfg.hash_bytes())


@dataclass
class StructureAwareModel:
    """Router plus its two structure-specific decoders."""

    article_classifier: ClassifierParams
    parallel_model: SummarizerParams
    sequence_model: SummarizerParams
    vocab: Vocabulary
    classifier_vocab: Vocabulary
    provenance: dict = field(default_factory=dict)


def structure_aware_summarize(model: StructureAwareModel, article_tokens,
                              cfg: RunConfig, mode: str = "greedy") -> dict:
    """Classify the article, decode with the matching sub-model, and return
    the three sentences with the routing decision attached."""
    if not article_tokens:
        raise ValueError("structure_aware_summarize: empty article")
    truncated = article_tokens[: cfg.max_src_len]
    res = classify(model.article_classifier, model.classifier_vocab.encode(truncated))
    sub = model.parallel_model if res.label == "parallel" else model.sequence_model
    out: DecodeResult = decode(
        sub,
        truncated,
        model.vocab,
        mode=mode,
        beam_size=cfg.beam_size,
        max_decode_len=cfg.max_decode_len,
        use_coverage=cfg.coverage_from_step is not None,
    )
    return {
        "summary": out.sentences,
        "chosen_label": res.label,
        "classifier_scores": {"parallel": res.p_parallel, "sequence": res.p_sequence},
        "degenerate": out.degenerate,
    }


# -- manifest -----------------------------------------------------------------


def write_manifest(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def update_manifest(path, stage: str, info: dict) -> dict:
    try:
        manifest = read_manifest(path)
    except FileNotFoundError:
        manifest = {"stages": {}}
    manifest.setdefault("stages", {})[stage] = info
    # The tau filter is one reading of why only part of the corpus gets
    # labels; keep that visible to downstream consumers.
    manifest["tau_filter_hypothesis"] = True
    write_manifest(path, manifest)
    return manifest
