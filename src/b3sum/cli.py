"""Command-line surface over every pipeline stage.

Every subcommand reads/writes files named on the command line, prints one
machine-readable JSON result to stdout (or --out), and logs to stderr.
Verbosity comes from the B3SUM_LOG environment variable (DEBUG/INFO/...).
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import metrics
from .checkpoint import CheckpointError
from .classifier import prepare_labeled, train_classifier, undersample_tune
from .config import RunConfig
from .corpus import CorpusError, Vocabulary, load_jsonl, read_json, read_jsonl, save_jsonl
from .pipeline import (
    StructureAwareModel,
    auto_label_corpus,
    classifier_trainer_config,
    decode_article,
    finetune,
    load_classifier,
    load_summarizer,
    new_classifier,
    open_manifest,
    pretrain,
    save_model,
    structure_aware_summarize,
    update_manifest,
)

log = logging.getLogger("b3sum")


def _setup_logging():
    level = os.environ.get("B3SUM_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(result: dict, out_path: str | None):
    _write(json.dumps(result, indent=2, sort_keys=True), out_path)


def _parse_set(values) -> dict:
    overrides = {}
    for item in values or ():
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _config(args) -> RunConfig:
    """The config file's keys, then each ``--set``, then ``--seed``, checked once."""
    values = read_json(args.config, "config file") if args.config else {}
    values.update(_parse_set(args.set))
    if args.seed is not None:
        values["seed"] = args.seed
    cfg = RunConfig.from_dict(values)
    log.info("resolved config: %s", cfg.canonical_json())
    return cfg


_FRACTION = "a number in [0, 1]", lambda v: 0 <= v <= 1
_COUNT = "an integer >= 1", lambda v: v >= 1
# flag -> (what the value must be, check) for the numeric flags that are not
# config keys, so a bad value is named by its flag; synth_generate and
# build_vocab keep their own checks of n and size for library callers
_FLAG_RULES = {"oov_rate": _FRACTION, "mix": _FRACTION, "target_precision": _FRACTION,
               "min_count": _COUNT, "steps": _COUNT, "epochs": _COUNT, "n": _COUNT,
               "size": ("an integer >= 0", lambda v: v >= 0)}

# --input choice -> the classifier's input kind
_INPUT_KINDS = {"summaries": "summary", "articles": "article"}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--seed", type=int, help="override config seed")


# -- subcommand implementations ----------------------------------------------


def cmd_gen_synth(args):
    cfg = _config(args)
    pairs = corpus_mod.synth_generate(
        seed=cfg.seed,
        n=args.n,
        oov_rate=args.oov_rate,
        structure_mix=args.mix,
    )
    save_jsonl(pairs, args.corpus_out)
    _emit({"written": len(pairs), "path": args.corpus_out}, args.out)


def cmd_build_vocab(args):
    pairs = load_jsonl(args.corpus)
    vocab = corpus_mod.build_vocab(
        pairs, mode=args.mode, size=args.size, min_count=args.min_count
    )
    vocab.save(args.vocab_out)
    _emit({"size": vocab.size, "path": args.vocab_out}, args.out)


def cmd_preprocess(args):
    cfg = _config(args)
    pairs = load_jsonl(args.corpus)
    prepared, report = corpus_mod.preprocess(
        pairs, max_src_len=cfg.max_src_len, min_summary_len=cfg.min_summary_len
    )
    save_jsonl(prepared, args.corpus_out)
    _emit(report.to_json() | {"path": args.corpus_out}, args.out)


def cmd_pretrain(args):
    cfg = _config(args)
    pairs = load_jsonl(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    if args.manifest:
        open_manifest(args.manifest)  # a bad manifest fails before training
    _, info = pretrain(pairs, vocab, cfg, steps=args.steps, out_path=args.checkpoint_out)
    if args.manifest:
        update_manifest(args.manifest, "pretrain", info | {"vocab": args.vocab})
    _emit(info, args.out)


def cmd_train_classifier(args):
    cfg = _config(args)
    pairs = load_jsonl(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    input_kind = _INPUT_KINDS[args.input]
    examples = prepare_labeled(pairs, vocab, input_kind, cfg.max_src_len)
    heldout = None
    if args.heldout:
        heldout = prepare_labeled(load_jsonl(args.heldout), vocab, input_kind, cfg.max_src_len)
    model = new_classifier(vocab.size, cfg)
    report = train_classifier(model, examples, heldout, classifier_trainer_config(cfg, args.epochs))
    save_model(model, args.checkpoint_out, cfg)
    _emit(
        {
            "epoch_losses": report.epoch_losses,
            "heldout": report.heldout,
            "checkpoint": args.checkpoint_out,
            "input": args.input,
        },
        args.out,
    )


def cmd_tune_undersample(args):
    cfg = _config(args)
    vocab = Vocabulary.load(args.vocab)
    input_kind = _INPUT_KINDS[args.input]
    train = prepare_labeled(load_jsonl(args.train), vocab, input_kind, cfg.max_src_len)
    heldout = prepare_labeled(load_jsonl(args.heldout), vocab, input_kind, cfg.max_src_len)
    result = undersample_tune(
        train, heldout, classifier_trainer_config(cfg, args.epochs), vocab.size,
        target_precision=args.target_precision,
    )
    save_model(result.model, args.checkpoint_out, cfg)
    _emit(
        {
            "ratio": result.ratio,
            "qualified": result.qualified,
            "heldout": result.heldout,
            "trials": result.trials,
            "checkpoint": args.checkpoint_out,
        },
        args.out,
    )


def cmd_auto_label(args):
    cfg = _config(args)
    vocab = Vocabulary.load(args.vocab)
    model = load_classifier(args.classifier, vocab, cfg)
    pairs = load_jsonl(args.corpus)
    parallel, sequence, rest, counts = auto_label_corpus(model, vocab, pairs, cfg.tau)
    save_jsonl(parallel, args.out_parallel)
    save_jsonl(sequence, args.out_sequence)
    if args.out_rest:
        save_jsonl(rest, args.out_rest)
    _emit(counts | {"tau": cfg.tau}, args.out)


def cmd_finetune(args):
    cfg = _config(args)
    pairs = load_jsonl(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    if args.manifest:
        open_manifest(args.manifest)  # a bad manifest fails before training
    _, info = finetune(
        args.base, pairs, args.label, vocab, cfg, steps=args.steps,
        out_path=args.checkpoint_out,
    )
    if args.manifest:
        update_manifest(args.manifest, f"finetune-{args.label}", info | {"vocab": args.vocab})
    _emit(info, args.out)


def cmd_summarize(args):
    cfg = _config(args)
    vocab = Vocabulary.load(args.vocab)
    pairs = load_jsonl(args.articles)
    summaries: dict[str, list[list[str]]] = {}
    extra: dict[str, dict] = {}
    degenerate = 0
    if args.checkpoint:
        model = load_summarizer(args.checkpoint, vocab, cfg)
        for p in pairs:
            res = decode_article(model, p.article, vocab, cfg, args.mode)
            summaries[p.id] = res.sentences
            degenerate += res.degenerate
    else:
        cls_vocab = Vocabulary.load(args.classifier_vocab)
        sam = StructureAwareModel(
            article_classifier=load_classifier(args.classifier, cls_vocab, cfg),
            parallel_model=load_summarizer(args.parallel_checkpoint, vocab, cfg),
            sequence_model=load_summarizer(args.sequence_checkpoint, vocab, cfg),
            vocab=vocab,
            classifier_vocab=cls_vocab,
        )
        for p in pairs:
            res = structure_aware_summarize(sam, p.article, cfg, mode=args.mode)
            summaries[p.id] = res["summary"]
            extra[p.id] = {
                "chosen_label": res["chosen_label"],
                "classifier_scores": res["classifier_scores"],
            }
            degenerate += res["degenerate"]
    corpus_mod.save_summary_file(summaries, args.summaries_out, extra)
    _emit(
        {"written": len(summaries), "degenerate": degenerate, "path": args.summaries_out},
        args.out,
    )


def _paired_docs(system_path, reference_path):
    system = corpus_mod.load_summary_file(system_path)
    reference = load_jsonl(reference_path)
    docs = []
    for p in reference:
        if p.id not in system:
            raise CorpusError(f"system output missing document {p.id!r}")
        docs.append((p, system[p.id]))
    return docs


def cmd_evaluate(args):
    docs = _paired_docs(args.system, args.reference)
    per_doc = []
    full_scores = []
    for pair, sys_sents in docs:
        positions = metrics.score_summary_positions(sys_sents, pair.summary)
        flat_sys = [t for s in sys_sents for t in s]
        flat_ref = [t for s in pair.summary for t in s]
        align = metrics.pairwise_align(sys_sents, pair.summary)
        per_doc.append(
            metrics.DocumentScores(
                doc_id=pair.id,
                per_position=positions,
                gold_class=pair.label.binary if pair.label else None,
                pattern=align.pattern,
            )
        )
        full_scores.append(
            {
                "rouge_1": metrics.rouge_n(flat_sys, flat_ref, 1).f1,
                "rouge_2": metrics.rouge_n(flat_sys, flat_ref, 2).f1,
                "rouge_l": metrics.rouge_l(flat_sys, flat_ref).f1,
            }
        )
    means = {
        m: float(np.mean([f[m] for f in full_scores])) if full_scores else 0.0
        for m in ("rouge_1", "rouge_2", "rouge_l")
    }
    if args.per_doc:
        with open(args.per_doc, "w", encoding="utf-8") as fh:
            for d, f in zip(per_doc, full_scores):
                fh.write(json.dumps(d.to_json() | {"full": f}) + "\n")
    _emit({"n": len(per_doc), "mean_f1": means}, args.out)


def cmd_align_eval(args):
    docs = _paired_docs(args.system, args.reference)
    per_doc = []
    for pair, sys_sents in docs:
        align = metrics.pairwise_align(sys_sents, pair.summary)
        per_doc.append(
            {
                "id": pair.id,
                "pattern": align.pattern,
                "slot_f1": [s.f1 for s in align.slot_scores],
            }
        )
    histogram = metrics.pattern_histogram(d["pattern"] for d in per_doc)
    _emit({"n": len(per_doc), "histogram": histogram, "documents": per_doc}, args.out)


def cmd_report(args):
    per_doc = read_jsonl(args.scores, metrics.DocumentScores.from_json)
    report = metrics.breakdown_report(per_doc)
    if args.format == "tsv":
        text = metrics.format_breakdown_tsv(report)
    elif args.format == "pretty":
        text = metrics.format_breakdown_pretty(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True)
    _write(text, args.out)


def cmd_stats(args):
    splits = {}
    for item in args.splits:
        if "=" not in item:
            raise ValueError(f"stats expects NAME=FILE arguments, got {item!r}")
        name, path = item.split("=", 1)
        pairs = load_jsonl(path)
        unlabeled = [p.id for p in pairs if p.label is None]
        if unlabeled:
            raise CorpusError(f"split {name!r} has unlabeled pairs, e.g. {unlabeled[0]!r}")
        splits[name] = pairs
    table = metrics.annotation_stats(splits)
    _emit(table, args.out)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b3sum",
        description="Structure-aware three-bullet summarization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oov-rate", type=float, default=0.2)
    p.add_argument("--mix", type=float, default=0.8, help="parallel fraction")
    p.add_argument("--corpus-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("build-vocab", help="build a vocabulary from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("cap", "min_count"), default="cap")
    p.add_argument("--size", type=int, default=50000)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--vocab-out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("preprocess", help="truncate articles and drop short summaries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--corpus-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="train the base summarizer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--manifest")
    _add_config_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-classifier", help="train the structure classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--input", choices=tuple(_INPUT_KINDS), required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--heldout")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--checkpoint-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("tune-undersample", help="precision-targeted under-sampling search")
    p.add_argument("--train", required=True)
    p.add_argument("--heldout", required=True)
    p.add_argument("--input", choices=tuple(_INPUT_KINDS), default="summaries")
    p.add_argument("--vocab", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--target-precision", type=float, default=0.8)
    p.add_argument("--checkpoint-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_tune_undersample)

    p = sub.add_parser("auto-label", help="label training pairs with the summary classifier")
    p.add_argument("--classifier", required=True)
    p.add_argument("--vocab", required=True, help="classifier vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-parallel", required=True)
    p.add_argument("--out-sequence", required=True)
    p.add_argument("--out-rest")
    _add_config_flags(p)
    p.set_defaults(func=cmd_auto_label)

    p = sub.add_parser("finetune", help="fine-tune a sub-model from the base checkpoint")
    p.add_argument("--base", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--label", choices=("parallel", "sequence"), required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--manifest")
    _add_config_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("summarize", help="decode three-bullet summaries")
    p.add_argument("--articles", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", choices=("greedy", "beam"), default="greedy")
    p.add_argument("--checkpoint", help="single-model decoding")
    p.add_argument("--classifier", help="routed decoding: article classifier checkpoint")
    p.add_argument("--classifier-vocab")
    p.add_argument("--parallel-checkpoint")
    p.add_argument("--sequence-checkpoint")
    p.add_argument("--summaries-out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="token ROUGE of system vs reference summaries")
    p.add_argument("--system", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--per-doc", help="write per-document scores JSONL here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("align-eval", help="no-duplicate sentence alignment evaluation")
    p.add_argument("--system", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_align_eval)

    p = sub.add_parser("report", help="per-sentence breakdown and pattern histogram")
    p.add_argument("--scores", required=True, help="per-document JSONL from evaluate")
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="annotation label counts per split")
    p.add_argument("splits", nargs="+", metavar="NAME=FILE")
    p.set_defaults(func=cmd_stats)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the JSON result here instead of stdout")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "summarize":
        routed = all(
            getattr(args, k) for k in
            ("classifier", "classifier_vocab", "parallel_checkpoint", "sequence_checkpoint")
        )
        if not args.checkpoint and not routed:
            parser.error(
                "summarize needs --checkpoint, or all of --classifier "
                "--classifier-vocab --parallel-checkpoint --sequence-checkpoint"
            )
    try:
        for dest, (desc, ok) in _FLAG_RULES.items():  # before any file is read
            value = getattr(args, dest, None)
            if value is not None and not ok(value):
                raise ValueError(f"--{dest.replace('_', '-')} must be {desc}, got {value!r}")
        args.func(args)
    except (CorpusError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
