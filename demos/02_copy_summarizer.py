"""
Training the copy-capable summarizer
====================================

Train the attention encoder-decoder on a small synthetic corpus and watch it
copy out-of-vocabulary entity names into its three-bullet output.

Runs in a minute or two on a laptop CPU.
"""

import numpy as np

from b3sum.config import RunConfig
from b3sum.corpus import build_vocab, split_pairs, synth_generate
from b3sum.summarizer import (
    ExtendedVocab,
    SummarizerParams,
    decode,
    prepare_pair,
    token_prediction_accuracy,
    train_batch,
)

# The generator produces articles that contain all three summary sentences
# plus distractors; with oov_rate > 0 some entity names are fresh per pair,
# so they can only be produced by copying from the source.
pairs = synth_generate(seed=11, n=300, oov_rate=0.2)
train, dev, _ = split_pairs(pairs, sizes=(270, 30, 0), seed=1)
vocab = build_vocab(train, mode="min_count", min_count=15)
print(f"{len(train)} training pairs, vocabulary of {vocab.size} tokens")

model = SummarizerParams(vocab.size, emb_dim=64, hidden_dim=64, seed=5)
prepared = [prepare_pair(p, vocab) for p in train]
heldout = [prepare_pair(p, vocab) for p in dev]

cfg = RunConfig(lr=0.3, clip_norm=2.0, batch_size=8, seed=2)
rng = np.random.default_rng(2)
for epoch in range(16):
    order = rng.permutation(len(prepared))
    losses = []
    for s in range(0, len(prepared), cfg.batch_size):
        batch = [prepared[i] for i in order[s : s + cfg.batch_size]]
        losses.append(train_batch(model, batch, cfg))
    acc = token_prediction_accuracy(model, heldout)
    print(f"epoch {epoch:2d}  loss {np.mean(losses):.3f}  "
          f"held-out acc {acc['accuracy']:.3f}  oov acc {acc['oov_accuracy']:.3f}")
    if acc["accuracy"] > 0.97:
        break

# Decode a held-out article that contains fresh entity names.  Copied
# names that never entered the vocabulary come back as surface tokens via
# the extended vocabulary.
pair = next(p for p in dev if any(t not in vocab for t in p.article))
ext = ExtendedVocab(vocab, pair.article)
print("\narticle :", " ".join(pair.article))
print("oov toks:", ext.doc_oovs)
out = decode(model, pair.article, vocab, mode="beam", beam_size=4, max_decode_len=40)
for k, sent in enumerate(out.sentences, start=1):
    print(f"bullet {k}:", " ".join(sent))
print("reference:", [" ".join(s) for s in pair.summary])

# Forcing the generation gate shut restricts output to source tokens only.
copy_only = decode(model, pair.article, vocab, max_decode_len=20, force_p_gen=0.0)
assert all(ext.token(i) in pair.article for i in copy_only.token_ids)
print("\nwith p_gen forced to 0, every emitted token came from the source")

# The coverage vector is the running sum of attention; its mass equals the
# step index, and the per-step penalty sum(min(a, c)) stays within [0, 1].
traced = decode(model, pair.article, vocab, max_decode_len=15,
                use_coverage=True, collect_traces=True)
for t, tr in enumerate(traced.traces[:5]):
    print(f"step {t}: coverage mass {tr.coverage_before.sum():.4f}  "
          f"penalty {tr.penalty:.4f}  p_gen {tr.p_gen:.2f}")
