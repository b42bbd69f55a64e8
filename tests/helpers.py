"""Shared fixtures: tiny models, zeroed parameters, small corpora, a traced
allocation peak, the nodes of a tape that nothing reads, and the traces of
a teacher-forced decoder step."""

import tracemalloc
from contextlib import contextmanager

import numpy as np

from b3sum.corpus import build_vocab, synth_generate
from b3sum.summarizer import StepTrace, SummarizerParams, prepare_pair
from b3sum.tape import Kernel


def zero_params(params):
    for p in params:
        p.value[...] = 0.0
        p.zero_grad()


def tiny_summarizer(vocab_size=12, emb=4, hidden=8, seed=3) -> SummarizerParams:
    return SummarizerParams(vocab_size, emb_dim=emb, hidden_dim=hidden, seed=seed)


def tiny_corpus(n=6, seed=7, oov_rate=0.3):
    """Pairs plus a vocabulary built from a disjoint oov-free sample, so
    fresh entity names in `pairs` really are out-of-vocabulary."""
    base = synth_generate(seed=seed + 1000, n=40, oov_rate=0.0)
    vocab = build_vocab(base, mode="cap", size=90)
    pairs = synth_generate(seed=seed, n=n, oov_rate=oov_rate)
    return pairs, vocab, [prepare_pair(p, vocab) for p in pairs]


class TracedMemory:
    """What ``traced_peak`` saw: ``peak``, the highest total of traced bytes
    in the block, set as the block ends."""

    peak = 0

    @staticmethod
    def held() -> int:
        """The bytes traced now."""
        return tracemalloc.get_traced_memory()[0]

    def restart(self) -> int:
        """Count the peak again from what is traced now, and return that."""
        tracemalloc.reset_peak()
        return self.held()


@contextmanager
def traced_peak():
    """Trace Python allocations for the block: only arrays made inside it
    count.  Yields a ``TracedMemory`` whose ``peak`` is set on the way out,
    also when the block raises."""
    traced = TracedMemory()
    tracemalloc.start()
    try:
        yield traced
    finally:
        traced.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def unread_nodes(tape, read_by_value=()) -> list[tuple[int, str]]:
    """(id, kernel) of each computed node on a recorded ``tape`` that no
    later node reads, other than the root, the tape's last node, and the
    nodes of the kernels in ``read_by_value``, whose values the caller
    reads through ``tape.value``."""
    read = {i for node in tape.nodes for i in node.input_ids}
    root = len(tape.nodes) - 1
    return [(nid, node.kernel.value) for nid, node in enumerate(tape.nodes)
            if node.kernel is not Kernel.LEAF and node.kernel not in read_by_value
            and nid not in read and nid != root]


def step_traces(tape, step) -> list[StepTrace]:
    """One ``StepTrace`` per row of a teacher-forced decoder step (the step
    ``sequence_loss`` returns), as ``decode`` records them: each row's
    coverage is rebuilt with the attention kernel's adds."""
    attention, p_gen = tape.value(step.a), tape.value(step.p_gen)
    penalties = None if step.penalties is None else tape.value(step.penalties)
    coverage = np.zeros((1, attention.shape[1]), dtype=attention.dtype)
    traces = []
    for r in range(attention.shape[0]):
        row = attention[r : r + 1]
        traces.append(StepTrace(
            attention=row.copy(),
            coverage_before=np.zeros(row.shape) if penalties is None else coverage.copy(),
            p_gen=float(p_gen[r, 0]),
            penalty=None if penalties is None else float(penalties[r, 0]),
        ))
        coverage = coverage + row
    return traces
