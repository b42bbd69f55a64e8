"""Corpus ingestion, preprocessing, vocabulary, splits, and synthetic data.

The on-disk corpus format is JSONL, one object per line:

    {"id": "...", "article": "space tokenized text",
     "summary": ["sent one", "sent two", "sent three"],
     "label": "parallel" | "parallel_enum" | "sequence" | "sequence_seg",
     "category": "..."}

``label`` and ``category`` are optional.  Text is pre-tokenized; tokens are
whatever whitespace splitting yields.  Corpus files are read strictly, with
no lenient mode: the first bad line raises CorpusError naming the file and
the line.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np


class CorpusError(ValueError):
    pass


class StructureLabel(enum.Enum):
    PARALLEL = "parallel"
    PARALLEL_ENUM = "parallel_enum"
    SEQUENCE = "sequence"
    SEQUENCE_SEG = "sequence_seg"

    @property
    def binary(self) -> str:
        """Collapse the 4-way taxonomy to the parallel/sequence decision."""
        if self in (StructureLabel.PARALLEL, StructureLabel.PARALLEL_ENUM):
            return "parallel"
        return "sequence"

    @property
    def binary_index(self) -> int:
        return 0 if self.binary == "parallel" else 1


BINARY_CLASSES = ("parallel", "sequence")


@dataclass
class NewsPair:
    """One article with its three-sentence summary."""

    id: str
    article: list[str]
    summary: list[list[str]]
    label: StructureLabel | None = None
    category: str | None = None

    def summary_tokens(self) -> int:
        return sum(len(s) for s in self.summary)

    def to_json(self) -> dict:
        obj = {
            "id": self.id,
            "article": " ".join(self.article),
            "summary": [" ".join(s) for s in self.summary],
        }
        if self.label is not None:
            obj["label"] = self.label.value
        if self.category is not None:
            obj["category"] = self.category
        return obj


class Vocabulary:
    """Token<->id bijection with fixed special ids."""

    PAD, UNK, START, STOP, SB = 0, 1, 2, 3, 4
    SPECIALS = ("<pad>", "<unk>", "<s>", "</s>", "<sb>")

    def __init__(self, tokens):
        self._id_to_token = [*self.SPECIALS, *tokens]
        self._token_to_id = dict(zip(self._id_to_token, range(len(self._id_to_token))))
        if len(self._token_to_id) < len(self._id_to_token):
            seen: set[str] = set()
            for t in self._id_to_token:
                if t in seen:
                    raise CorpusError(f"duplicate vocabulary token {t!r}")
                seen.add(t)

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, self.UNK)

    def token(self, i: int) -> str:
        return self._id_to_token[i]

    def encode(self, tokens) -> list[int]:
        return list(map(self._token_to_id.get, tokens, repeat(self.UNK)))

    def content_tokens(self) -> list[str]:
        return self._id_to_token[len(self.SPECIALS):]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tokens": self.content_tokens()}, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a ``save`` file; a malformed one raises CorpusError naming it."""
        tokens = read_json(path, "vocabulary file").get("tokens")
        try:
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise CorpusError('needs an object with a "tokens" list of strings')
            return cls(tokens)
        except CorpusError as exc:
            raise CorpusError(f"vocabulary file {path}: {exc}") from None


# -- JSON and JSONL ingestion --------------------------------------------


def _parse_id(obj: dict) -> str:
    """``obj["id"]``, a string or an integer (not a bool), as a string."""
    doc_id = obj["id"]
    if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
        raise CorpusError(f"id must be a string or an integer, got {type(doc_id).__name__}")
    return str(doc_id)


def _tokens(text, what: str) -> list[str]:
    if not isinstance(text, str):
        raise CorpusError(f"{what} must be a string, got {type(text).__name__}")
    return text.split()


def _parse_sentences(sents) -> list[list[str]]:
    return [_tokens(s, f"summary sentence {k + 1}") for k, s in enumerate(sents)]


def _parse_pair(obj: dict) -> NewsPair:
    for key in ("id", "article", "summary"):
        if key not in obj:
            raise CorpusError(f"missing required field {key!r}")
    article = _tokens(obj["article"], "article")
    if not article:
        raise CorpusError("article is empty")
    summary_raw = obj["summary"]
    if not isinstance(summary_raw, list) or len(summary_raw) != 3:
        got = len(summary_raw) if isinstance(summary_raw, list) else type(summary_raw).__name__
        raise CorpusError(f"summary must have exactly 3 sentences, got {got}")
    summary = _parse_sentences(summary_raw)
    if any(not s for s in summary):
        raise CorpusError("summary sentence is empty")
    label = None
    if obj.get("label") is not None:
        try:
            label = StructureLabel(obj["label"])
        except ValueError:
            raise CorpusError(f"invalid label string {obj['label']!r}") from None
    category = obj.get("category")
    if category is not None and not isinstance(category, str):
        raise CorpusError(f"category must be a string or null, got {type(category).__name__}")
    return NewsPair(
        id=_parse_id(obj),
        article=article,
        summary=summary,
        label=label,
        category=category,
    )


def read_json(path, what: str) -> dict:
    """The JSON object held in ``path``.  Bad UTF-8, bad JSON, nesting too
    deep to parse and any non-object value raise CorpusError naming ``what``
    and the file; OSError passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise CorpusError(f"{what} {path}: not a JSON object")
    return obj


def read_jsonl(path, parse) -> list:
    """``parse(obj)`` for the JSON object on each non-blank line.  The first
    bad line (undecodable bytes, bad JSON, a non-object, or an error from
    ``parse``) raises CorpusError naming the file and the line."""
    results: list = []
    # Undecodable bytes become lone surrogates, so the line holding them is named.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise CorpusError("line is not valid UTF-8") from None
                obj = json.loads(line)  # ValueError: bad JSON, or an int too long to convert
                if not isinstance(obj, dict):
                    raise CorpusError("line is not a JSON object")
                results.append(parse(obj))
            except (ValueError, RecursionError) as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc}") from None
    return results


def _distinct_ids(parse, id_of):
    """``parse`` for ``read_jsonl`` that also rejects an id an earlier line held."""
    seen: set[str] = set()

    def checked(obj):
        item = parse(obj)
        doc_id = id_of(item)
        if doc_id in seen:
            raise CorpusError(f"repeated id {doc_id!r}")
        seen.add(doc_id)
        return item

    return checked


def load_jsonl(path) -> list[NewsPair]:
    """The pairs in a corpus file.  A bad line, or an id an earlier line
    holds, raises CorpusError naming the file and the line."""
    return read_jsonl(path, _distinct_ids(_parse_pair, lambda pair: pair.id))


def save_jsonl(pairs, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in pairs:
            fh.write(json.dumps(p.to_json(), ensure_ascii=False))
            fh.write("\n")


def _parse_summary(obj: dict) -> tuple[str, list[list[str]]]:
    if "id" not in obj or "summary" not in obj:
        raise CorpusError("needs 'id' and 'summary'")
    sents = obj["summary"]
    if not isinstance(sents, list) or len(sents) != 3:
        raise CorpusError("summary must have 3 sentences")
    return _parse_id(obj), _parse_sentences(sents)


def load_summary_file(path) -> dict[str, list[list[str]]]:
    """Load system-output summaries: id -> three token lists.

    Unlike training corpora, system outputs may contain empty sentences
    (padded short decodes), so only the sentence count is enforced.  A bad
    line, or an id an earlier line holds, raises CorpusError naming the file
    and the line.
    """
    return dict(read_jsonl(path, _distinct_ids(_parse_summary, lambda item: item[0])))


def save_summary_file(summaries: dict, path, extra: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc_id, sents in summaries.items():
            obj = {"id": doc_id, "summary": [" ".join(s) for s in sents]}
            if extra and doc_id in extra:
                obj.update(extra[doc_id])
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


# -- preprocessing ---------------------------------------------------------


@dataclass
class PreprocessReport:
    kept: int = 0
    truncated: int = 0
    dropped_short_summary: int = 0

    def to_json(self) -> dict:
        return {
            "kept": self.kept,
            "truncated": self.truncated,
            "dropped_short_summary": self.dropped_short_summary,
        }


def preprocess(
    pairs, max_src_len: int = 400, min_summary_len: int = 70
) -> tuple[list[NewsPair], PreprocessReport]:
    """Truncate articles to their first max_src_len tokens and drop pairs
    whose three summary sentences total fewer than min_summary_len tokens."""
    report = PreprocessReport()
    out = []
    for p in pairs:
        if p.summary_tokens() < min_summary_len:
            report.dropped_short_summary += 1
            continue
        article = p.article
        if len(article) > max_src_len:
            article = article[:max_src_len]
            report.truncated += 1
        out.append(NewsPair(p.id, article, p.summary, p.label, p.category))
        report.kept += 1
    return out, report


# -- vocabulary construction -----------------------------------------------


def build_vocab(pairs, mode: str = "cap", size: int = 50000, min_count: int = 2) -> Vocabulary:
    """Build a vocabulary over article + summary tokens, counted by one
    ``Counter`` over each pair's article and then its summary sentences.

    mode="cap" keeps the `size` most frequent tokens (ties broken by first
    occurrence in that order); mode="min_count" keeps tokens seen at least
    `min_count` times.  Specials are always present and do not count against
    the cap.
    """
    if not pairs:
        raise CorpusError("cannot build vocabulary from an empty corpus")
    counts = Counter(chain.from_iterable(
        tokens for p in pairs for tokens in (p.article, *p.summary)))
    for special in Vocabulary.SPECIALS:
        counts.pop(special, None)

    ordered = sorted(counts, key=counts.__getitem__, reverse=True)  # stable: ties keep that order
    if mode == "cap":
        if size < 0:
            raise CorpusError(f"vocabulary size must be >= 0, got {size}")
        kept = ordered[:size]
    elif mode == "min_count":
        kept = [t for t in ordered if counts[t] >= min_count]
    else:
        raise ValueError(f"unknown vocab mode {mode!r}")
    return Vocabulary(kept)


# -- splits ------------------------------------------------------------------


def split_pairs(pairs, sizes, seed: int = 0):
    """Deterministic train/dev/test split of ``sizes=(n_train, n_dev, n_test)``
    pairs, shuffled by ``seed``.  A negative size raises CorpusError."""
    n = len(pairs)
    for name, size in zip(("train", "dev", "test"), sizes):
        if size < 0:
            raise CorpusError(f"{name} split size must be >= 0, got {size}")
    if sum(sizes) > n:
        raise CorpusError(f"requested split sizes {sizes} exceed corpus size {n}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [pairs[i] for i in order]
    n_train, n_dev, n_test = sizes
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_dev],
        shuffled[n_train + n_dev : n_train + n_dev + n_test],
    )


# -- synthetic corpus --------------------------------------------------------

_ENTITIES = [
    "arden", "bellamy", "corvin", "daria", "elwood", "farrow", "gideon",
    "halsey", "imara", "jarek", "kestrel", "lorne", "mabel", "nolan",
    "opal", "petra",
]
_OBJECTS = ["merger", "festival", "rollout", "expansion", "audit", "tournament", "exhibit"]
_PLACES = ["astoria", "brookfield", "calder", "dunmore", "eastvale", "foxglove"]
_DAYS = ["monday", "tuesday", "wednesday", "thursday", "friday"]
_TIMES = ["spring", "summer", "autumn", "winter"]
_CATEGORIES = ["national", "it", "sports"]
_OOV_STEMS = ["zorv", "vexl", "quam", "kyrr"]


_RAW_BLOCK = 4096  # words per random_raw call, whatever the corpus size


class _Draws:
    """The raw words of the PCG64 ``bits``, read ``_RAW_BLOCK`` at a time into
    a buffer that ``_replay_block`` reads through ``peek`` and ``skip``, and
    ``high``, the buffered high half of a word whose low half a 32-bit draw
    took (PCG64's ``next_uint32``), or None.

    ``release`` leaves ``bits`` where these draws stand, so that numpy's own
    ``Generator`` on it draws on from there; ``resume`` reads back where it
    stopped.
    """

    def __init__(self, bits):
        self._bits = bits
        self._words = np.empty(0, np.uint64)
        self._next = 0  # index in _words of the next unread word
        self.high = None

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, left unread."""
        while self._words.size - self._next < count:
            self._words = np.concatenate(
                (self._words[self._next:], self._bits.random_raw(_RAW_BLOCK)))
            self._next = 0
        return self._words[self._next : self._next + count]

    def skip(self, count: int) -> None:
        self._next += count

    def release(self) -> None:
        """Move ``bits`` back to the next unread word, with ``high`` as its
        buffered half, and empty the buffer."""
        unread = self._words.size - self._next
        if unread:
            self._bits.advance(2**128 - unread)  # a full period less the words read ahead
        state = self._bits.state  # advance cleared its buffered half
        state["has_uint32"], state["uinteger"] = (0, 0) if self.high is None else (1, self.high)
        self._bits.state = state
        self._words, self._next = self._words[:0], 0

    def resume(self) -> None:
        """Take ``high`` back from ``bits``, where a ``Generator`` left it."""
        state = self._bits.state
        self.high = state["uinteger"] if state["has_uint32"] else None


def _draw_pair(rng: np.random.Generator, oov_rate: float, structure_mix: float):
    """One pair's (fields, parallel), drawn by ``rng`` one call at a time:
    the draws that ``_replay_block`` replays.  ``fields`` are e1-e4, the
    three objects, the three places, the two days, the time and the
    category."""
    fields = [_ENTITIES[i] for i in rng.choice(len(_ENTITIES), 4, replace=False)]
    for e in (0, 1):
        if rng.random() < oov_rate:
            fields[e] = f"{_OOV_STEMS[rng.integers(len(_OOV_STEMS))]}{rng.integers(100, 1000)}"
    fields += (_OBJECTS[i] for i in rng.choice(len(_OBJECTS), 3, replace=False))
    fields += (_PLACES[i] for i in rng.choice(len(_PLACES), 3, replace=False))
    fields += (_DAYS[i] for i in rng.choice(len(_DAYS), 2, replace=False))
    fields.append(_TIMES[rng.integers(len(_TIMES))])
    parallel = rng.random() < structure_mix
    fields.append(_CATEGORIES[rng.integers(len(_CATEGORIES))])
    return fields, parallel


# _draw_pair's 26 bounded 32-bit draws, in draw order: the entities' Floyd
# picks and Fisher-Yates swaps (columns 0-6), e1's and e2's OOV stem and
# number (7-10, drawn only when that pair's double falls below oov_rate),
# then those of the objects (11-15), the places (16-20) and the days
# (21-23), the time (24) and the category (25).
_BOUNDS = np.array([13, 14, 15, 16, 4, 3, 2, 4, 900, 4, 900,
                    5, 6, 7, 3, 2, 4, 5, 6, 3, 2, 4, 5, 2, 4, 3])
# Lemire redraws a low half below these (made in Python: numpy arithmetic
# at import reads more of numpy's code and raises max RSS)
_THRESHOLDS = np.array([(2**32 - b) % b for b in _BOUNDS.tolist()])
# where each column's draw sits among its pair's 32-bit halves, before the
# OOV draws the pair skips are taken out
_HALF = np.array([*range(9), 7, 8, *range(7, 22)])
_AFTER_E1 = np.array([0] * 9 + [2] * 17)
_AFTER_E2 = np.array([0] * 11 + [2] * 15)
# The four samples as rows of a (4 x 4) block: entities (k = 4), objects,
# places (k = 3), days (k = 2).  Their spare slots hold the time (7, 11, 14)
# and the category (15), so the block's 16 slots index one lexicon.
_SLOTS = np.array([0, 1, 2, 3, 11, 12, 13, 24, 16, 17, 18, 24, 21, 22, 24, 25])
_FLOYD_FIRST = np.array([12, 4, 3, 3])  # pop - k
# Fisher-Yates step i = 3, 2, 1 swaps slot i of each sample with k > i and the
# slot its draw names: (slots i, the samples' first slots, the draws' columns)
_SWAPS = [(np.array([3]), np.array([0]), [4]),
          (np.array([2, 6, 10]), np.array([0, 4, 8]), [5, 14, 19]),
          (np.array([1, 5, 9, 13]), np.array([0, 4, 8, 12]), [6, 15, 20, 23])]
_LEXICON = np.array(_ENTITIES + _OBJECTS + _PLACES + _DAYS + _TIMES + _CATEGORIES, object)
_FIELDS = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 15]  # slots in _draw_pair's order
_LEXICON_AT = np.array([0, 0, 0, 0, 16, 16, 16, 23, 23, 23, 29, 29, 34, 38])  # field list starts
_BLOCK_PAIRS = 256  # at most 16 words a pair, so a block peeks 4096 words


def _replay_block(draws: _Draws, count: int, oov_rate: float, structure_mix: float):
    """``_draw_pair``'s results for up to ``count`` pairs, made as whole
    arrays from the raw words, and ``draws`` left after them.  numpy's
    ``choice(replace=False)`` is Floyd's sampling, then a Fisher-Yates
    shuffle, and its bounded 32-bit draws are Lemire's multiply-and-reject;
    so is this replay.  It stops before the first pair with a low half that
    Lemire may redraw (in practice a 900-bound OOV number, at 796 in 2**32),
    which ``_draw_pair`` then draws.

    A pair takes 14 words, plus one for each OOV name: its three doubles
    take one each, its 22 or more 32-bit draws the halves of the rest.  As
    that count of halves is even, every pair starts with the buffered half
    (``draws.high``) the block started with, or with none.
    """
    parity = draws.high is not None
    window = draws.peek(16 * count)
    hits = ((window >> 11) * 2.0**-53 < oov_rate).tolist()
    first_double = 4 - parity  # after the entities' 7 draws
    e1_oov, e2_oov = [], []
    d1 = first_double
    for _ in range(count):
        o1 = hits[d1]
        o2 = hits[d1 + 1 + o1]
        e1_oov.append(o1)
        e2_oov.append(o2)
        d1 += 14 + o1 + o2
    o1, o2 = np.array(e1_oov, np.intp), np.array(e2_oov, np.intp)
    start = np.zeros(count + 1, np.intp)  # each pair's first word, then the block's end
    np.cumsum(14 + o1 + o2, out=start[1:])
    first = 2 * start - 6 * np.arange(count + 1)  # each pair's first half in ``halves``
    d1 = start[:-1] + first_double
    d2 = d1 + 1 + o1
    d3 = d2 + 8 + o2
    keep = np.ones(start[-1], bool)
    keep[d1] = keep[d2] = keep[d3] = False
    halves = window[: start[-1]][keep].astype("<u8", copy=False).view("<u4").astype(np.int64)
    if parity:
        halves = np.concatenate(([draws.high], halves))
    prod = halves[first[:-1, None] + _HALF + o1[:, None] * _AFTER_E1
                  + o2[:, None] * _AFTER_E2] * _BOUNDS
    # the OOV columns of a pair without that name read two of its other
    # draws, which can only stop the block early, never make it wrong
    redrawn = ((prod & 0xFFFFFFFF) < _THRESHOLDS).any(1)
    done = int(redrawn.argmax()) if redrawn.any() else count
    draws.skip(int(start[done]))
    draws.high = int(halves[first[done]]) if parity else None

    drawn = prod[:done] >> 32
    picks = drawn[:, _SLOTS]
    block = picks.reshape(-1, 4, 4)
    for t, m in ((1, 4), (2, 3), (3, 1)):  # Floyd: a repeated pick becomes pop - k + t
        pick = block[:, :m, t]
        taken = (block[:, :m, :t] == pick[..., None]).any(2)
        block[:, :m, t] = np.where(taken, _FLOYD_FIRST[:m] + t, pick)
    rows = np.arange(done)[:, None]
    for slots, starts, cols in _SWAPS:  # Fisher-Yates, one step i at a time
        other = starts + drawn[:, cols]
        held = picks[:, slots]
        picks[:, slots] = picks[rows, other]
        picks[rows, other] = held

    words = _LEXICON[picks[:, _FIELDS] + _LEXICON_AT].tolist()
    parallel = ((window[d3[:done]] >> 11) * 2.0**-53 < structure_mix).tolist()
    pairs = []
    for fields, new_e1, new_e2, (stem1, num1, stem2, num2), par in zip(
            words, e1_oov, e2_oov, drawn[:, 7:11].tolist(), parallel):
        if new_e1:
            fields[0] = f"{_OOV_STEMS[stem1]}{100 + num1}"
        if new_e2:
            fields[1] = f"{_OOV_STEMS[stem2]}{100 + num2}"
        pairs.append((fields, par))
    return pairs


def _news_pair(pair_id: str, fields, parallel: bool) -> NewsPair:
    e1, e2, e3, e4, obj, obj2, obj3, place, place2, place3, day, day2, time, category = fields
    s1 = [e1, "announced", "the", obj, "plan", "in", place, "on", day]
    s2 = [e2, "backed", "the", obj, "effort", "from", place2]
    if parallel:
        s3 = [e1, "outlined", "further", obj2, "steps", "for", time]
    else:
        s3 = [e2, "detailed", "the", obj, "terms", "this", time]

    article = (
        s1
        + [e3, "visited", "the", place3, "fair", "yesterday"]
        + s2
        + [e4, "reviewed", "a", obj3, "proposal", "overnight"]
        + s3
        + ["officials", "expect", "updates", "after", day2]
    )
    return NewsPair(
        id=pair_id,
        article=article,
        summary=[s1, s2, s3],
        label=StructureLabel.PARALLEL if parallel else StructureLabel.SEQUENCE,
        category=category,
    )


def synth_generate(
    seed: int, n: int, oov_rate: float = 0.2, structure_mix: float = 0.8
) -> list[NewsPair]:
    """Deterministic template corpus with gold structure labels.

    Sentence 1 states the incident about entity e1, sentence 2 introduces a
    second entity e2, and sentence 3's subject decides the label: e1 for
    parallel pairs, e2 for sequence pairs.  Articles contain all three fact
    sentences verbatim plus distractors.  With probability oov_rate each
    entity is a fresh name outside the closed lexicon, so pairs exercise the
    copy path once a vocabulary is built over the corpus.

    The pairs are those of ``_draw_pair`` on ``np.random.default_rng(seed)``.
    ``_replay_block`` makes them ``_BLOCK_PAIRS`` at a time from the raw
    words; a pair with a draw Lemire may redraw is drawn by ``_draw_pair``
    on the generator itself, which ``_Draws`` releases to it and then
    resumes from.  Both rates must lie in [0, 1].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for name, rate in (("oov_rate", oov_rate), ("structure_mix", structure_mix)):
        if not 0 <= rate <= 1:
            raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
    rng = np.random.default_rng(seed)
    draws = _Draws(rng.bit_generator)
    pairs = []
    while len(pairs) < n:
        want = min(n - len(pairs), _BLOCK_PAIRS)
        block = _replay_block(draws, want, oov_rate, structure_mix)
        if len(block) < want:  # the next pair holds a draw Lemire may redraw
            draws.release()
            block.append(_draw_pair(rng, oov_rate, structure_mix))
            draws.resume()
        for fields, parallel in block:
            pairs.append(_news_pair(f"synth-{seed}-{len(pairs):05d}", fields, parallel))
    return pairs
