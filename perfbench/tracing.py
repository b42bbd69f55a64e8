"""Spans around calls into b3sum's public functions, recorded from outside src/.

The tracer replaces module attributes with timing wrappers.  A function that
another b3sum module imported by name (``from .layers import lstm_step``) is
bound in that module too, so every loaded ``b3sum`` module attribute that is
the original function object gets the wrapper.  A caller that kept the
original reference elsewhere would bypass the wrapper; ``Tracer.unfired``
names every wrapper that recorded no call, and the traced run fails on it.

Spans stay in memory as ``[name, start, end, parent, request]`` lists (the
span id is the list index) and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (module, class or None, attribute)
TARGETS = {
    "tape.backward": ("b3sum.tape", "Tape", "backward"),
    "tape.clip_global_norm": ("b3sum.tape", None, "clip_global_norm"),
    "tape.adagrad_step": ("b3sum.tape", None, "adagrad_step"),
    "layers.embed_rows": ("b3sum.layers", None, "embed_rows"),
    "layers.lstm_step": ("b3sum.layers", None, "lstm_step"),
    "layers.bilstm_encode": ("b3sum.layers", None, "bilstm_encode"),
    "summarizer.prepare_pair": ("b3sum.summarizer", None, "prepare_pair"),
    "summarizer.sequence_loss": ("b3sum.summarizer", None, "sequence_loss"),
    "summarizer.train_batch": ("b3sum.summarizer", None, "train_batch"),
    "summarizer.attend": ("b3sum.summarizer", None, "attend"),
    "summarizer.vocab_distribution": ("b3sum.summarizer", None, "vocab_distribution"),
    "summarizer.generation_prob": ("b3sum.summarizer", None, "generation_prob"),
    "summarizer.final_distribution": ("b3sum.summarizer", None, "final_distribution"),
    "summarizer.decode": ("b3sum.summarizer", None, "decode"),
    "classifier.prepare_labeled": ("b3sum.classifier", None, "prepare_labeled"),
    "classifier.classify": ("b3sum.classifier", None, "classify"),
    "classifier.train_classifier": ("b3sum.classifier", None, "train_classifier"),
    "pipeline.pretrain": ("b3sum.pipeline", None, "pretrain"),
    "pipeline.auto_label_corpus": ("b3sum.pipeline", None, "auto_label_corpus"),
    "pipeline.finetune": ("b3sum.pipeline", None, "finetune"),
    "pipeline.structure_aware_summarize": ("b3sum.pipeline", None, "structure_aware_summarize"),
    "checkpoint.save_checkpoint": ("b3sum.checkpoint", None, "save_checkpoint"),
    "checkpoint.load_checkpoint": ("b3sum.checkpoint", None, "load_checkpoint"),
    "metrics.rouge_n": ("b3sum.metrics", None, "rouge_n"),
    "metrics.pairwise_align": ("b3sum.metrics", None, "pairwise_align"),
    "corpus.synth_generate": ("b3sum.corpus", None, "synth_generate"),
    "corpus.build_vocab": ("b3sum.corpus", None, "build_vocab"),
    "corpus.preprocess": ("b3sum.corpus", None, "preprocess"),
}

# Spans whose tapes are counted: the training tape of a batch, and every
# tape a decode builds.
_TAPE_SINKS = ("summarizer.train_batch", "summarizer.decode")


def _request_of(name, args):
    """Example id carried by the call's own arguments, if any."""
    if name == "summarizer.train_batch" and len(args) > 1 and args[1]:
        return args[1][0].id
    if name == "summarizer.sequence_loss" and len(args) > 2:
        return args[2].id
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None  # set by the workload around each article
        self.counts: Counter = Counter()
        self.kernel_nodes: Counter = Counter()
        self._stack: list[int] = []
        self._sinks: list[list] = []
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            request = _request_of(name, args)
            if request is None:
                request = tracer.spans[parent][4] if parent is not None else tracer.request
            sid = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, request]
            tracer.spans.append(span)
            sink = [] if name in _TAPE_SINKS else None
            if sink is not None:
                tracer._sinks.append(sink)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if sink is not None:
                    tracer._sinks.pop()
            if sink is not None:
                tracer._count_tapes(name, sink, args, result)
            return result

        return wrapper

    def _count_tapes(self, name, tapes, args, result):
        nodes = sum(len(t.nodes) for t in tapes)
        if name == "summarizer.train_batch":
            self.counts["train_examples"] += len(args[1])
            self.counts["train_nodes"] += nodes
            for t in tapes:
                self.kernel_nodes.update(node.kernel.value for node in t.nodes)
        else:
            self.counts["decode_nodes"] += nodes
            self.counts["decode_tokens"] += len(result.token_ids)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around its own steps."""
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._stack.pop()

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every target and every by-name import of it in b3sum modules."""
        for name, (mod_name, cls_name, attr) in TARGETS.items():
            module = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                qualname = getattr(mod, "__name__", "")
                if qualname == "b3sum" or qualname.startswith("b3sum."):
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, original, wrapper)

        tape_cls = importlib.import_module("b3sum.tape").Tape
        original_init = tape_cls.__init__
        tracer = self

        @functools.wraps(original_init)
        def init(tape_self, *args, **kwargs):
            original_init(tape_self, *args, **kwargs)
            if tracer._sinks:
                tracer._sinks[-1].append(tape_self)

        self._patch(tape_cls, "__init__", original_init, init)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def unfired(self, expected) -> list[str]:
        calls = self.calls()
        return sorted(name for name in expected if calls[name] == 0)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, request]))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children may overlap each other; the covered part is the union of their
    intervals, clipped to the parent's interval.
    """
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(sid, ())
        ):
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def totals_by_name(spans, values) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span, v in zip(spans, values):
        out[span[0]] += v
    return out


def sum_within(spans, selfs, root_name) -> dict[str, float]:
    """Self time by span name, over spans inside (or equal to) ``root_name`` spans."""
    inside = [False] * len(spans)
    for sid, span in enumerate(spans):
        parent = span[3]
        inside[sid] = span[0] == root_name or (parent is not None and inside[parent])
    out: dict[str, float] = defaultdict(float)
    for sid, span in enumerate(spans):
        if inside[sid]:
            out[span[0]] += selfs[sid]
    return out
