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

from .checkpoint import checkpoint_digest, load_checkpoint, restore_params, save_checkpoint, tensor_map
from .classifier import ClassifierParams, ClassifierTrainConfig, classifier_input_tokens, classify
from .config import RunConfig
from .corpus import CorpusError, NewsPair, Vocabulary, read_json
from .summarizer import (
    DecodeResult,
    PreparedExample,
    SummarizerParams,
    decode,
    prepare_pair,
    train_batch,
)
from .tape import train_steps

log = logging.getLogger("b3sum.pipeline")


def new_summarizer(vocab_size: int, cfg: RunConfig) -> SummarizerParams:
    return SummarizerParams(
        vocab_size, cfg.emb_dim, cfg.hidden_dim, cfg.attn_dim, seed=cfg.seed
    )


def new_classifier(vocab_size: int, cfg: RunConfig) -> ClassifierParams:
    return ClassifierParams(
        vocab_size, cfg.classifier_emb_dim, cfg.classifier_hidden_dim, seed=cfg.seed
    )


def classifier_trainer_config(cfg: RunConfig, epochs: int) -> ClassifierTrainConfig:
    return ClassifierTrainConfig(
        emb_dim=cfg.classifier_emb_dim,
        hidden_dim=cfg.classifier_hidden_dim,
        lr=cfg.classifier_lr,
        batch_size=cfg.batch_size,
        epochs=epochs,
        seed=cfg.seed,
    )


def save_model(model, path, cfg: RunConfig) -> None:
    """Write the parameters of ``model`` to ``path`` under ``cfg``'s hash."""
    save_checkpoint(tensor_map(model.params()), path, cfg.hash_bytes())


def restore_model(model, path, cfg: RunConfig):
    """``model`` with the tensors of the checkpoint at ``path``; a config
    hash other than ``cfg``'s is logged as a warning."""
    tensors, _ = load_checkpoint(path, expect_hash=cfg.hash_bytes())
    restore_params(model.params(), tensors)
    return model


def load_summarizer(path, vocab: Vocabulary, cfg: RunConfig) -> SummarizerParams:
    return restore_model(new_summarizer(vocab.size, cfg), path, cfg)


def load_classifier(path, vocab: Vocabulary, cfg: RunConfig) -> ClassifierParams:
    return restore_model(new_classifier(vocab.size, cfg), path, cfg)


def decode_article(model: SummarizerParams, article_tokens, vocab: Vocabulary,
                   cfg: RunConfig, mode: str) -> DecodeResult:
    """Decode the first ``max_src_len`` tokens of an article with the
    config's beam size and length cap, with coverage iff the config
    trains with it."""
    return decode(model, article_tokens[: cfg.max_src_len], vocab, mode=mode,
                  beam_size=cfg.beam_size, max_decode_len=cfg.max_decode_len,
                  use_coverage=cfg.coverage_from_step is not None)


def coverage_at(cfg: RunConfig, step: int) -> bool:
    """Whether training step ``step`` (from 0) adds the coverage loss."""
    return cfg.coverage_from_step is not None and step >= cfg.coverage_from_step


def _train_steps(model: SummarizerParams, prepared: list[PreparedExample],
                 cfg: RunConfig, steps: int) -> list[float]:
    def step(k, idx):  # reads the module's train_batch each step, so it can be patched
        return train_batch(model, [prepared[i] for i in idx], cfg, use_coverage=coverage_at(cfg, k))

    return train_steps(step, len(prepared), cfg.batch_size, cfg.seed, steps, "training")


def pretrain(pairs: list[NewsPair], vocab: Vocabulary, cfg: RunConfig, steps: int,
             out_path=None) -> tuple[SummarizerParams, dict]:
    """Train the shared base model on all pairs for a number of optimizer
    steps; returns the model and a provenance record."""
    if not pairs:
        raise ValueError("pretrain: empty corpus")
    prepared = [prepare_pair(p, vocab) for p in pairs]
    model = new_summarizer(vocab.size, cfg)
    losses = _train_steps(model, prepared, cfg, steps)
    info = {"stage": "pretrain", "steps": steps, "pairs": len(pairs)}
    return model, _stage_info(info, model, losses, cfg, out_path)


def _stage_info(info: dict, model: SummarizerParams, losses: list[float], cfg: RunConfig,
                out_path) -> dict:
    """``info`` plus the config hash and the last loss, and, with an
    ``out_path``, the checkpoint written there and its digest."""
    info |= {"config_hash": cfg.hash_hex(), "final_loss": losses[-1] if losses else None}
    if out_path is not None:
        save_model(model, out_path, cfg)
        info["checkpoint"] = str(out_path)
        info["checkpoint_digest"] = checkpoint_digest(out_path)
    return info


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
    model = load_summarizer(base_checkpoint, vocab, cfg)
    prepared = [prepare_pair(p, vocab) for p in subset]
    losses = _train_steps(model, prepared, cfg, steps)
    info = {
        "stage": f"finetune-{label}",
        "steps": steps,
        "pairs": len(subset),
        "base_digest": checkpoint_digest(base_checkpoint),
    }
    return model, _stage_info(info, model, losses, cfg, out_path)


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
    out = decode_article(sub, truncated, model.vocab, cfg, mode)
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
    manifest = read_json(path, "manifest")
    if not isinstance(manifest.get("stages", {}), dict):
        raise CorpusError(f'manifest {path}: "stages" is not a JSON object')
    return manifest


def open_manifest(path) -> dict:
    """The manifest at ``path``, or a new one when no file is there."""
    try:
        return read_manifest(path)
    except FileNotFoundError:
        return {"stages": {}}


def update_manifest(path, stage: str, info: dict) -> dict:
    manifest = open_manifest(path)
    manifest.setdefault("stages", {})[stage] = info
    write_manifest(path, manifest)
    return manifest
