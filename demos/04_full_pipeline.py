"""
The structure-aware pipeline end to end
=======================================

Pretrain one base summarizer on everything, label the training summaries
automatically, fine-tune a parallel and a sequence sub-model, and route test
articles through an article classifier to the matching sub-model.
"""

import tempfile
from pathlib import Path

from b3sum.classifier import ClassifierParams, ClassifierTrainConfig, prepare_labeled, train_classifier
from b3sum.config import RunConfig
from b3sum.corpus import build_vocab, synth_generate
from b3sum.pipeline import (
    StructureAwareModel,
    auto_label_corpus,
    finetune,
    prepare_pairs,
    pretrain,
    structure_aware_summarize,
    update_manifest,
)
from b3sum.summarizer import corpus_loss

workdir = Path(tempfile.mkdtemp(prefix="b3sum_demo_"))
cfg = RunConfig(hidden_dim=32, emb_dim=32, classifier_emb_dim=32,
                classifier_hidden_dim=32, batch_size=8, lr=0.3,
                max_decode_len=30, tau=0.8, seed=9)

pairs = synth_generate(seed=31, n=150, oov_rate=0.1, structure_mix=0.7)
train, heldout = pairs[:125], pairs[125:]
vocab = build_vocab(train, mode="min_count", min_count=10)

print("1) pretraining the shared base model")
base, info = pretrain(train, vocab, cfg, steps=400, out_path=workdir / "base.ckpt")
update_manifest(workdir / "manifest.json", info)
print(f"   final loss {info['final_loss']:.3f}")

print("2) training the summary classifier and auto-labeling")
cls_cfg = ClassifierTrainConfig(emb_dim=32, hidden_dim=32, lr=0.3, batch_size=8,
                                epochs=12, seed=9)
summary_cls = ClassifierParams(vocab.size, 32, 32, seed=9)
train_classifier(summary_cls, prepare_labeled(train, vocab, "summary"), None, cls_cfg)
par, seq, rest, counts = auto_label_corpus(summary_cls, vocab, train, cfg.tau)
print(f"   {counts}")

print("3) fine-tuning one sub-model per structure")
par_model, par_info = finetune(workdir / "base.ckpt", par, "parallel", vocab, cfg,
                               steps=80, out_path=workdir / "par.ckpt")
seq_model, seq_info = finetune(workdir / "base.ckpt", seq, "sequence", vocab, cfg,
                               steps=80, out_path=workdir / "seq.ckpt")
update_manifest(workdir / "manifest.json", par_info)
update_manifest(workdir / "manifest.json", seq_info)
for name, sub in (("parallel", par_model), ("sequence", seq_model)):
    subset = prepare_pairs([p for p in heldout if p.label.binary == name], vocab, cfg)
    print(f"   {name}: held-out loss {corpus_loss(base, subset):.3f} (base) -> "
          f"{corpus_loss(sub, subset):.3f} (fine-tuned)")

print("4) routing articles through the article classifier")
article_cls = ClassifierParams(vocab.size, 32, 32, seed=10)
train_classifier(article_cls, prepare_labeled(train, vocab, "article"), None, cls_cfg)
router = StructureAwareModel(
    article_classifier=article_cls,
    parallel_model=par_model,
    sequence_model=seq_model,
    vocab=vocab,
    classifier_vocab=vocab,
)
for pair in heldout[:3]:
    out = structure_aware_summarize(router, pair.article, cfg)
    print(f"   [{out['chosen_label']:8s} gold={pair.label.binary}] "
          + " | ".join(" ".join(s) for s in out["summary"]))
print(f"\nartifacts and manifest in {workdir}")
