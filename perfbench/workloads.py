"""The two benchmark workloads: pipeline-synth and paper-shape.

Both are closed loops with one caller in one process: each call into b3sum
starts only after the previous one returned.  Every input is generated from
the workload seed; b3sum receives only those inputs.  Models are trained in
the measured phase, never loaded from committed files.

Sizes are fixed per workload, so a seed always gives the same models and
the same outputs.  Once the fixed job is done, the latency pass over the
held-out articles repeats until ``seconds`` have passed since measuring
began, which only adds timing samples.
"""

from __future__ import annotations

import math
import resource
import time
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from b3sum import classifier, corpus, metrics, pipeline, summarizer
from b3sum.config import RunConfig
from b3sum.corpus import NewsPair, Vocabulary

from stats import MIN_BEYOND, beyond, tail_ok

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S in
# all.  A pipeline-synth set-up takes about 35 ms, so a few of them sample a
# single moment of a shared machine; the median of many is steadier.
SETUP_REPEATS = 11
SETUP_MIN_S = 2.0

# pipeline-synth follows the pipeline acceptance test (batch 8, lr 0.3,
# dims 32, 40 pretrain steps, 6 summary-classifier epochs) with 10 instead
# of 30 fine-tune steps per sub-model, to keep the job near one minute.  The
# article classifier gets 8 epochs, within the 6 to 10 the classifier tests
# use: at 6 it still sent every article to the parallel model on three of
# five seeds, and the sequence branch of routing went untimed.
PIPELINE_SIZES = {
    "full": dict(n_train=200, n_heldout=100, dim=32, batch=8, lr=0.3, pretrain_steps=40,
                 finetune_steps=10, summary_cls_epochs=6, article_cls_epochs=8,
                 loss_pairs=20, min_count=15, max_decode_len=30, tau=0.8, calib_pairs=4),
    "smoke": dict(n_train=16, n_heldout=4, dim=8, batch=2, lr=0.5, pretrain_steps=3,
                  finetune_steps=1, summary_cls_epochs=1,
                  article_cls_epochs=1, loss_pairs=2, min_count=2,
                  max_decode_len=6, tau=0.0, calib_pairs=1),
}
PAPER_SIZES = {
    "full": dict(vocab=20000, emb=128, hidden=256, src=400, tgt=60, n_train=4,
                 train_steps=4, n_heldout=6, loss_pairs=1, max_decode_len=60),
    "smoke": dict(vocab=400, emb=16, hidden=16, src=60, tgt=15, n_train=2,
                  train_steps=2, n_heldout=2, loss_pairs=1, max_decode_len=15),
}
SYNTH_ARTICLE_LEN = 40  # tokens in every synth_generate article


class WorkloadAborted(RuntimeError):
    """A call into b3sum raised; the workload cannot go on."""

    def __init__(self, what, result):
        super().__init__(what)
        self.result = result


@dataclass
class Result:
    """Metrics by name as (value, unit), plus the operation ledger."""

    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    calibration: object = None  # a short fixed job for measuring tracing overhead

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def op(self, what, problem=None):
        """Count one operation; ``problem`` is its failed check, if any."""
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@contextmanager
def guarded(result: Result, what: str):
    """Count an exception from b3sum as a failed operation and abort."""
    try:
        yield
    except Exception as exc:
        result.op(what, f"{type(exc).__name__}: {exc}")
        raise WorkloadAborted(what, result) from exc


@contextmanager
def recording_losses(losses: list):
    """Keep (loss, batch size, seconds) of every summarizer step the pipeline
    stages run."""
    original = pipeline.train_batch

    def train_batch(model, batch, *args, **kwargs):
        loss, dt = timed(original, model, batch, *args, **kwargs)
        losses.append((loss, len(batch), dt))
        return loss

    pipeline.train_batch = train_batch
    try:
        yield
    finally:
        pipeline.train_batch = original


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def ids_outside(token_ids, article_tokens, vocab) -> list[int]:
    ext_size = summarizer.ExtendedVocab(vocab, article_tokens).size
    return [i for i in token_ids if not 0 <= i < ext_size]


def add_decode_samples(lat, t_first, t_greedy, n_tokens):
    """Record a one-token and a full greedy decode of the same article."""
    lat["first_token_ms"].append(t_first * 1e3)
    lat["greedy_ms_per_token"].append(t_greedy * 1e3 / max(1, n_tokens))
    lat["greedy_tokens"].append(n_tokens)


def check_losses(result: Result, stage: str, losses):
    for k, loss in enumerate(losses):
        result.op(f"{stage} step {k}", None if math.isfinite(loss) else f"loss {loss}")


def setup_repeated(build, tracer):
    """Run set-up repeatedly; returns the last state, the median time and
    every time."""
    times = []
    state = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        state = None  # let the previous models go before building new ones
        if tracer is None:
            state, dt = timed(build)
        else:
            with tracer.span("bench.setup"):
                state, dt = timed(build)
        times.append(dt)
    return state, median(times), times


def fill_until(deadline, one_pass):
    """Repeat the latency pass until ``deadline``; returns extra passes run."""
    passes = 0
    while time.perf_counter() < deadline:
        one_pass()
        passes += 1
    return passes


# -- pipeline-synth ------------------------------------------------------------


def pipeline_synth(seed: int, seconds: float, size: str, workdir: Path, tracer=None) -> Result:
    """Pretrain -> classifiers -> auto-label -> fine-tune -> route, at the
    tiny synthetic shape the tests use."""
    s = PIPELINE_SIZES[size]
    result = Result()
    cfg = RunConfig(hidden_dim=s["dim"], emb_dim=s["dim"], classifier_emb_dim=s["dim"],
                    classifier_hidden_dim=s["dim"], batch_size=s["batch"], lr=s["lr"],
                    max_decode_len=s["max_decode_len"], tau=s["tau"], seed=seed)
    sum_cls_cfg = classifier.ClassifierTrainConfig(
        emb_dim=s["dim"], hidden_dim=s["dim"], lr=0.3, batch_size=8,
        epochs=s["summary_cls_epochs"], seed=seed)
    art_cls_cfg = replace(sum_cls_cfg, epochs=s["article_cls_epochs"])

    def build():
        pairs = corpus.synth_generate(seed, s["n_train"] + s["n_heldout"],
                                      oov_rate=0.1, structure_mix=0.7)
        pairs, _ = corpus.preprocess(pairs, max_src_len=cfg.max_src_len, min_summary_len=0)
        train, heldout = pairs[: s["n_train"]], pairs[s["n_train"]:]
        vocab = corpus.build_vocab(train, mode="min_count", min_count=s["min_count"])
        return dict(
            train=train,
            heldout=heldout,
            vocab=vocab,
            held_prepared=[summarizer.prepare_pair(p, vocab) for p in heldout[: s["loss_pairs"]]],
            summary_examples=classifier.prepare_labeled(train, vocab, "summary"),
            article_examples=classifier.prepare_labeled(train, vocab, "article"),
            untrained=pipeline.new_summarizer(vocab.size, cfg),
            summary_cls=classifier.ClassifierParams(vocab.size, s["dim"], s["dim"], seed=seed),
            article_cls=classifier.ClassifierParams(vocab.size, s["dim"], s["dim"], seed=seed + 1),
        )

    with guarded(result, "setup"):
        st, setup_s, setup_times = setup_repeated(build, tracer)
    train, heldout, vocab = st["train"], st["heldout"], st["vocab"]

    lat = {k: [] for k in ("route_ms", "beam4_ms", "first_token_ms", "greedy_ms_per_token",
                           "greedy_tokens")}
    measure_start = time.perf_counter()
    losses: list[tuple] = []
    with guarded(result, "pretrain"), recording_losses(losses):
        (base, _), t_pretrain = timed(pipeline.pretrain, train, vocab, cfg, s["pretrain_steps"],
                                      out_path=workdir / "base.ckpt")
    check_losses(result, "pretrain", [loss for loss, _, _ in losses])
    pretrain_examples = sum(n for _, n, _ in losses)

    with guarded(result, "summary classifier"):
        sum_report, t_cls_sum = timed(classifier.train_classifier, st["summary_cls"],
                                      st["summary_examples"], None, sum_cls_cfg)
    with guarded(result, "auto-label"):
        (par, seq, _, counts), t_label = timed(pipeline.auto_label_corpus, st["summary_cls"],
                                                vocab, train, cfg.tau)
    result.op("auto-label", None if par and seq else f"a structure subset is empty: {counts}")

    finetune_losses: list[tuple] = []
    t_finetune = 0.0
    subs = {}
    for label, subset in (("parallel", par), ("sequence", seq)):
        with guarded(result, f"finetune {label}"), recording_losses(finetune_losses):
            (subs[label], _), dt = timed(pipeline.finetune, workdir / "base.ckpt", subset, label,
                                         vocab, cfg, s["finetune_steps"],
                                         out_path=workdir / f"{label}.ckpt")
        t_finetune += dt
    check_losses(result, "finetune", [loss for loss, _, _ in finetune_losses])
    finetune_examples = sum(n for _, n, _ in finetune_losses)
    lat["train_ms_per_example"] = [dt * 1e3 / n for _, n, dt in losses + finetune_losses]

    with guarded(result, "article classifier"):
        art_report, t_cls_art = timed(classifier.train_classifier, st["article_cls"],
                                      st["article_examples"], None, art_cls_cfg)
    for name, report in (("summary", sum_report), ("article", art_report)):
        for k, loss in enumerate(report.epoch_losses):
            result.op(f"{name} classifier epoch {k}",
                      None if math.isfinite(loss) else f"loss {loss}")

    with guarded(result, "held-out loss"):
        heldout_loss = summarizer.corpus_loss(base, st["held_prepared"])
        untrained_loss = summarizer.corpus_loss(st["untrained"], st["held_prepared"])
    result.op("held-out loss", None if heldout_loss < untrained_loss
              else f"trained {heldout_loss:.4f} >= untrained {untrained_loss:.4f}")

    sam = pipeline.StructureAwareModel(
        article_classifier=st["article_cls"], parallel_model=subs["parallel"],
        sequence_model=subs["sequence"], vocab=vocab, classifier_vocab=vocab,
    )
    quality = {"rouge2": [], "align": [], "routed_ok": [], "degenerate": [], "parallel": []}

    def route_one(pair: NewsPair, first_pass: bool):
        if tracer is not None:
            tracer.request = pair.id
        with guarded(result, f"route {pair.id}"):
            out, t_route = timed(pipeline.structure_aware_summarize, sam, pair.article, cfg)
            truncated = pair.article[: cfg.max_src_len]
            standalone = classifier.classify(st["article_cls"], vocab.encode(truncated))
            sub = subs[standalone.label]
            greedy, t_greedy = timed(summarizer.decode, sub, truncated, vocab,
                                     max_decode_len=cfg.max_decode_len)
            beam, t_beam = timed(summarizer.decode, sub, truncated, vocab, mode="beam",
                                 beam_size=4, max_decode_len=cfg.max_decode_len)
            first, t_first = timed(summarizer.decode, sub, truncated, vocab, max_decode_len=1)
        problems = []
        if len(out["summary"]) != 3:
            problems.append(f"{len(out['summary'])} sentence slots")
        if out["chosen_label"] != standalone.label:
            problems.append(f"routed {out['chosen_label']}, classify says {standalone.label}")
        if greedy.sentences != out["summary"]:
            problems.append("greedy decode differs from the routed summary")
        result.op(f"route {pair.id}", "; ".join(problems))
        for kind, dec in (("greedy", greedy), ("beam4", beam), ("first-token", first)):
            bad = ids_outside(dec.token_ids, truncated, vocab)
            result.op(f"{kind} decode {pair.id}",
                      f"token ids {bad} outside the extended vocabulary" if bad else None)
        lat["route_ms"].append(t_route * 1e3)
        lat["beam4_ms"].append(t_beam * 1e3)
        add_decode_samples(lat, t_first, t_greedy, len(greedy.token_ids))
        if not first_pass:
            return
        quality["rouge2"].append(metrics.rouge_n(
            [t for sent in out["summary"] for t in sent],
            [t for sent in pair.summary for t in sent], 2).f1)
        quality["align"].append(metrics.pairwise_align(out["summary"], pair.summary).mean_f1)
        quality["routed_ok"].append(out["chosen_label"] == pair.label.binary)
        quality["degenerate"].extend([greedy.degenerate, beam.degenerate])
        quality["parallel"].append(out["chosen_label"] == "parallel")

    for pair in heldout:
        route_one(pair, True)
    extra = fill_until(measure_start + seconds,
                       lambda: [route_one(p, False) for p in heldout])
    measured_s = time.perf_counter() - measure_start

    result.put("setup_s", setup_s, "s")
    result.put("train_examples_per_s",
               (pretrain_examples + finetune_examples) / (t_pretrain + t_finetune), "1/s")
    cls_examples = (len(st["summary_examples"]) * len(sum_report.epoch_losses)
                    + len(st["article_examples"]) * len(art_report.epoch_losses))
    result.put("classifier_train_examples_per_s", cls_examples / (t_cls_sum + t_cls_art), "1/s")
    put_latency(result, lat, "route_ms", (50, 90))
    put_latency(result, lat, "beam4_ms", (50, 90))
    put_latency(result, lat, "first_token_ms", (50,))
    put_latency(result, lat, "greedy_ms_per_token", (50,))
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.put("heldout_loss", heldout_loss, "nats")
    result.put("rouge2_f1", float(np.mean(quality["rouge2"])), "f1")
    result.put("routing_accuracy", float(np.mean(quality["routed_ok"])), "share")
    result.put("degenerate_rate", float(np.mean(quality["degenerate"])), "share")
    result.info.update(
        setup_times_s=setup_times, measured_s=measured_s, extra_latency_passes=extra,
        samples=lat, untrained_heldout_loss=untrained_loss,
        alignment_mean_f1=float(np.mean(quality["align"])),
        auto_label_counts=counts, pretrain_s=t_pretrain, finetune_s=t_finetune,
        auto_label_s=t_label, routed_parallel_share=float(np.mean(quality["parallel"])),
        shapes=dict(vocab=vocab.size, emb=cfg.emb_dim, hidden=cfg.hidden_dim,
                    classifier_emb=cfg.classifier_emb_dim,
                    classifier_hidden=cfg.classifier_hidden_dim,
                    source_len=SYNTH_ARTICLE_LEN,
                    target_len=max(len(e.target_ext_ids) for e in st["held_prepared"]),
                    batch=cfg.batch_size, classifier_batch=sum_cls_cfg.batch_size,
                    pretrain_steps=s["pretrain_steps"], finetune_steps=s["finetune_steps"],
                    summary_classifier_epochs=sum_cls_cfg.epochs,
                    article_classifier_epochs=art_cls_cfg.epochs, train_pairs=len(train),
                    heldout_articles=len(heldout), loss_pairs=len(st["held_prepared"]),
                    max_decode_len=cfg.max_decode_len, beam_size=4, lr=cfg.lr, tau=cfg.tau),
    )
    result.calibration = lambda: (
        summarizer.corpus_loss(base, st["held_prepared"][: s["calib_pairs"]]),
        summarizer.decode(base, heldout[0].article, vocab, max_decode_len=cfg.max_decode_len),
    )
    return result


def put_latency(result: Result, lat, name: str, quantiles):
    samples = lat[name]
    result.info[f"{name}_samples"] = len(samples)
    for q in quantiles:
        value = float(np.percentile(samples, q))
        result.put(f"{name}_p{q}", value, "ms")
        if q != 50:
            result.info[f"{name}_p{q}_beyond"] = beyond(samples, value)
            if not tail_ok(samples, q):
                result.info[f"{name}_p{q}_note"] = f"fewer than {MIN_BEYOND} samples beyond"


# -- paper-shape -----------------------------------------------------------------


def paper_pairs(seed: int, n: int, src: int, tgt: int) -> list[NewsPair]:
    """Pairs at the paper's shape, built from synth_generate output: articles
    concatenated to ``src`` tokens, each bullet lengthened from the same
    articles' bullets so the decoder target is ``tgt`` steps long."""
    per_article = -(-src // SYNTH_ARTICLE_LEN)
    small = corpus.synth_generate(seed, n * per_article, oov_rate=0.2)
    per_slot = (tgt - 3) // 3  # two sentence boundaries and the stop token
    out = []
    for k in range(n):
        group = small[k * per_article : (k + 1) * per_article]
        article = [t for p in group for t in p.article][:src]
        summary = [[t for p in group for t in p.summary[i]][:per_slot] for i in range(3)]
        out.append(NewsPair(f"paper-{seed}-{k:03d}", article, summary, group[0].label))
    return out


def padded_vocab(pairs, size: int) -> Vocabulary:
    """Corpus vocabulary padded with filler tokens to ``size`` ids."""
    base = corpus.build_vocab(pairs, mode="min_count", min_count=2)
    fillers = [f"<fill{i:05d}>" for i in range(size - base.size)]
    return Vocabulary(base.content_tokens() + fillers)


def paper_shape(seed: int, seconds: float, size: str, workdir: Path, tracer=None) -> Result:
    """Summarizer training steps and greedy decoding at vocab 20k, emb 128,
    hidden 256, source 400, target 60."""
    s = PAPER_SIZES[size]
    result = Result()
    tc = summarizer.TrainConfig(lr=0.15, clip_norm=2.0, batch_size=1, seed=seed)

    def build():
        pairs = paper_pairs(seed, s["n_train"] + s["n_heldout"], s["src"], s["tgt"])
        pairs, _ = corpus.preprocess(pairs, max_src_len=s["src"], min_summary_len=0)
        train, heldout = pairs[: s["n_train"]], pairs[s["n_train"]:]
        vocab = padded_vocab(train, s["vocab"])
        return dict(
            heldout=heldout,
            vocab=vocab,
            train_prepared=[summarizer.prepare_pair(p, vocab) for p in train],
            held_prepared=[summarizer.prepare_pair(p, vocab) for p in heldout[: s["loss_pairs"]]],
            model=summarizer.SummarizerParams(vocab.size, s["emb"], s["hidden"], seed=seed),
            # Decodes run on an untrained copy: its copy distribution always
            # outweighs </s> and <sb>, so every decode runs the full length,
            # whatever a seed's briefly trained model would emit.  Such a
            # decode is always degenerate, so degenerate_rate is not reported.
            decoder=summarizer.SummarizerParams(vocab.size, s["emb"], s["hidden"], seed=seed),
        )

    with guarded(result, "setup"):
        st, setup_s, setup_times = setup_repeated(build, tracer)
    model, decoder, vocab, heldout = st["model"], st["decoder"], st["vocab"], st["heldout"]
    with guarded(result, "untrained held-out loss"):
        untrained_loss = summarizer.corpus_loss(model, st["held_prepared"])

    lat = {k: [] for k in ("first_token_ms", "greedy_ms_per_token", "greedy_tokens",
                           "train_ms_per_example")}

    def decode_one(pair: NewsPair):
        if tracer is not None:
            tracer.request = pair.id
        with guarded(result, f"decode {pair.id}"):
            first, t_first = timed(summarizer.decode, decoder, pair.article, vocab,
                                   max_decode_len=1)
            greedy, t_greedy = timed(summarizer.decode, decoder, pair.article, vocab,
                                     max_decode_len=s["max_decode_len"])
        for kind, dec in (("first-token", first), ("greedy", greedy)):
            bad = ids_outside(dec.token_ids, pair.article, vocab)
            result.op(f"{kind} decode {pair.id}",
                      f"token ids {bad} outside the extended vocabulary" if bad else None)
        add_decode_samples(lat, t_first, t_greedy, len(greedy.token_ids))

    # One decode after each training step spreads both kinds of sample over
    # the whole run, so a slow spell on a shared machine hits both alike.
    measure_start = time.perf_counter()
    losses = []
    for step in range(s["train_steps"]):
        ex = st["train_prepared"][step % len(st["train_prepared"])]
        with guarded(result, f"train step {step}"):
            loss, dt = timed(summarizer.train_batch, model, [ex], tc)
        losses.append(loss)
        lat["train_ms_per_example"].append(dt * 1e3 / tc.batch_size)
        decode_one(heldout[step % len(heldout)])
    check_losses(result, "train", losses)

    with guarded(result, "held-out loss"):
        heldout_loss = summarizer.corpus_loss(model, st["held_prepared"])
    result.op("held-out loss", None if heldout_loss < untrained_loss
              else f"trained {heldout_loss:.4f} >= untrained {untrained_loss:.4f}")

    for pair in heldout:
        decode_one(pair)
    extra = fill_until(measure_start + seconds, lambda: [decode_one(p) for p in heldout])
    measured_s = time.perf_counter() - measure_start

    result.put("setup_s", setup_s, "s")
    result.put("train_examples_per_s", 1e3 / np.mean(lat["train_ms_per_example"]), "1/s")
    put_latency(result, lat, "first_token_ms", (50,))
    put_latency(result, lat, "greedy_ms_per_token", (50,))
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.put("heldout_loss", heldout_loss, "nats")
    result.info.update(
        setup_times_s=setup_times, measured_s=measured_s, extra_latency_passes=extra,
        untrained_heldout_loss=untrained_loss, train_losses=losses,
        samples=lat,
        shapes=dict(vocab=vocab.size, emb=s["emb"], hidden=s["hidden"],
                    source_len=max(len(p.article) for p in heldout),
                    target_len=max(len(e.target_ext_ids) for e in st["train_prepared"]),
                    batch=tc.batch_size, train_steps=s["train_steps"],
                    heldout_articles=len(heldout), loss_pairs=len(st["held_prepared"]),
                    max_decode_len=s["max_decode_len"], lr=tc.lr),
    )
    result.calibration = lambda: summarizer.decode(decoder, heldout[0].article, vocab,
                                                   max_decode_len=10)
    return result


WORKLOADS = {"pipeline-synth": pipeline_synth, "paper-shape": paper_shape}
