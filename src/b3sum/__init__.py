"""Structure-aware three-bullet abstractive summarization, from scratch.

The package is organized bottom-up:

- ``tape``: the autodiff tape, Adagrad, clipping, gradient checks
- ``layers``: embeddings, linear maps, LSTM cell, bidirectional encoder
- ``summarizer``: attention decoder with copy mechanism and coverage; one
  ``decoder_step`` serves training, evaluation and decoding
- ``classifier``: binary summary-structure classifier with under-sampling
- ``pipeline``: pretrain -> auto-label -> fine-tune -> route
- ``metrics``: ROUGE-1/2/L, pairwise sentence alignment, report tables
- ``corpus``: JSONL ingestion, preprocessing, vocabulary, synthetic data
- ``config`` / ``checkpoint`` / ``cli``: run configs, binary checkpoints,
  and the command-line surface
"""

from .config import RunConfig
from .corpus import NewsPair, StructureLabel, Vocabulary, synth_generate
from .metrics import RougeScore, pairwise_align, rouge_l, rouge_n
from .summarizer import SummarizerParams, decode
from .tape import Parameter, Tape, adagrad_step, clip_global_norm, finite_diff_check

__version__ = "0.1.0"

__all__ = [
    "NewsPair",
    "Parameter",
    "RougeScore",
    "RunConfig",
    "StructureLabel",
    "SummarizerParams",
    "Tape",
    "Vocabulary",
    "adagrad_step",
    "clip_global_norm",
    "decode",
    "finite_diff_check",
    "pairwise_align",
    "rouge_l",
    "rouge_n",
    "synth_generate",
]
