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
from dataclasses import dataclass, replace

from .checkpoint import (CheckpointError, atomic_write, checkpoint_digest, load_checkpoint,
                         restore_params, save_checkpoint, tensor_map)
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


def _summarizer(vocab_size: int, cfg: RunConfig, seed: int | None) -> SummarizerParams:
    return SummarizerParams(vocab_size, cfg.emb_dim, cfg.hidden_dim, cfg.attn_dim, seed=seed)


def _classifier(vocab_size: int, cfg: RunConfig, seed: int | None) -> ClassifierParams:
    return ClassifierParams(vocab_size, cfg.classifier_emb_dim, cfg.classifier_hidden_dim,
                            seed=seed)


def new_summarizer(vocab_size: int, cfg: RunConfig) -> SummarizerParams:
    return _summarizer(vocab_size, cfg, cfg.seed)


def new_classifier(vocab_size: int, cfg: RunConfig) -> ClassifierParams:
    return _classifier(vocab_size, cfg, cfg.seed)


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
    """``model`` holding the arrays loaded from the checkpoint at ``path``; a
    config hash other than ``cfg``'s is logged as a warning, and a tensor set
    or tensor the model cannot take raises CheckpointError naming the file."""
    tensors, _ = load_checkpoint(path, expect_hash=cfg.hash_bytes())
    try:
        restore_params(model.params(), tensors)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model


# A loaded model is built with seed=None: its tensors are zeros, not drawn,
# until restore_model replaces them with the loaded arrays.
def load_summarizer(path, vocab: Vocabulary, cfg: RunConfig) -> SummarizerParams:
    return restore_model(_summarizer(vocab.size, cfg, None), path, cfg)


def load_classifier(path, vocab: Vocabulary, cfg: RunConfig) -> ClassifierParams:
    return restore_model(_classifier(vocab.size, cfg, None), path, cfg)


def decode_article(model: SummarizerParams, article_tokens, vocab: Vocabulary,
                   cfg: RunConfig, mode: str) -> DecodeResult:
    """Decode the first ``max_src_len`` tokens of an article with the
    config's beam size and length cap, with coverage iff the config
    trains with it."""
    return decode(model, article_tokens[: cfg.max_src_len], vocab, mode=mode,
                  beam_size=cfg.beam_size, max_decode_len=cfg.max_decode_len,
                  use_coverage=cfg.coverage_from_step is not None)


def prepare_pairs(pairs: list[NewsPair], vocab: Vocabulary,
                  cfg: RunConfig) -> list[PreparedExample]:
    """Each pair prepared for training or loss, its article read, as
    decoding reads it, up to its first ``max_src_len`` tokens."""
    return [prepare_pair(replace(p, article=p.article[: cfg.max_src_len]), vocab)
            for p in pairs]


def coverage_at(cfg: RunConfig, step: int) -> bool:
    """Whether training step ``step`` (from 0) adds the coverage loss."""
    return cfg.coverage_from_step is not None and step >= cfg.coverage_from_step


def _train_steps(model: SummarizerParams, prepared: list[PreparedExample],
                 cfg: RunConfig, steps: int) -> list[float]:
    def step(k, idx):  # reads the module's train_batch each step, so it can be patched
        return train_batch(model, [prepared[i] for i in idx], cfg, use_coverage=coverage_at(cfg, k))

    return train_steps(step, len(prepared), cfg.batch_size, cfg.seed, steps, "training")


def _train_stage(model: SummarizerParams, pairs: list[NewsPair], vocab: Vocabulary,
                 cfg: RunConfig, steps: int, info: dict,
                 out_path) -> tuple[SummarizerParams, dict]:
    """Train ``model`` for ``steps`` steps on ``prepare_pairs(pairs, ...)``.

    Returns the model and ``info`` plus the step and pair counts, the config
    hash and the last loss, and, with an ``out_path``, the checkpoint
    written there and its digest.
    """
    losses = _train_steps(model, prepare_pairs(pairs, vocab, cfg), cfg, steps)
    info |= {"steps": steps, "pairs": len(pairs), "config_hash": cfg.hash_hex(),
             "final_loss": losses[-1] if losses else None}
    if out_path is not None:
        save_model(model, out_path, cfg)
        info["checkpoint"] = str(out_path)
        info["checkpoint_digest"] = checkpoint_digest(out_path)
    return model, info


def pretrain(pairs: list[NewsPair], vocab: Vocabulary, cfg: RunConfig, steps: int,
             out_path=None) -> tuple[SummarizerParams, dict]:
    """Train the shared base model on all pairs for a number of optimizer
    steps; returns the model and its stage record (``_train_stage``)."""
    if not pairs:
        raise ValueError("pretrain: empty corpus")
    return _train_stage(new_summarizer(vocab.size, cfg), pairs, vocab, cfg, steps,
                        {"stage": "pretrain"}, out_path)


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
    info = {"stage": f"finetune-{label}", "base_digest": checkpoint_digest(base_checkpoint)}
    return _train_stage(load_summarizer(base_checkpoint, vocab, cfg), subset, vocab, cfg, steps,
                        info, out_path)


@dataclass
class StructureAwareModel:
    """Router plus its two structure-specific decoders."""

    article_classifier: ClassifierParams
    parallel_model: SummarizerParams
    sequence_model: SummarizerParams
    vocab: Vocabulary
    classifier_vocab: Vocabulary


def structure_aware_summarize(model: StructureAwareModel, article_tokens,
                              cfg: RunConfig, mode: str = "greedy") -> dict:
    """Classify the article, decode with the matching sub-model, and return
    the three sentences with the routing decision attached."""
    if not article_tokens:
        raise ValueError("structure_aware_summarize: empty article")
    res = classify(model.article_classifier,
                   model.classifier_vocab.encode(article_tokens[: cfg.max_src_len]))
    sub = model.parallel_model if res.label == "parallel" else model.sequence_model
    out = decode_article(sub, article_tokens, model.vocab, cfg, mode)
    return {
        "summary": out.sentences,
        "chosen_label": res.label,
        "classifier_scores": {"parallel": res.p_parallel, "sequence": res.p_sequence},
        "degenerate": out.degenerate,
    }


# -- manifest -----------------------------------------------------------------


def open_manifest(path) -> dict:
    """The manifest at ``path``, or a new one when no file is there; one
    that is not a JSON object with a ``"stages"`` object raises CorpusError
    naming the file."""
    try:
        manifest = read_json(path, "manifest")
    except FileNotFoundError:
        return {"stages": {}}
    if not isinstance(manifest.get("stages", {}), dict):
        raise CorpusError(f'manifest {path}: "stages" is not a JSON object')
    return manifest


def update_manifest(path, info: dict) -> dict:
    """File a stage record under its ``"stage"`` in the manifest at ``path``,
    replacing the file whole, so a record that cannot be written leaves the
    manifest as it was."""
    manifest = open_manifest(path)
    manifest.setdefault("stages", {})[info["stage"]] = info
    with atomic_write(path, "x", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
