"""Token-level ROUGE, no-duplicate sentence alignment, and report tables.

All functions are pure: token sequences in, scores out.  Tokenization is the
caller's problem; empty sequences score zero against everything.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .corpus import BINARY_CLASSES, StructureLabel, _parse_id


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return cls(precision, recall, f1)


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(sys_tokens, ref_tokens, n: int) -> RougeScore:
    """Clipped n-gram overlap; empty n-gram sets give zero precision/recall."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sys_grams = _ngrams(sys_tokens, n)
    ref_grams = _ngrams(ref_tokens, n)
    overlap = sum(min(c, ref_grams[g]) for g, c in sys_grams.items())
    n_sys = sum(sys_grams.values())
    n_ref = sum(ref_grams.values())
    precision = overlap / n_sys if n_sys else 0.0
    recall = overlap / n_ref if n_ref else 0.0
    return RougeScore.from_pr(precision, recall)


def _lcs_len(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(sys_tokens, ref_tokens) -> RougeScore:
    """Longest-common-subsequence ROUGE with beta=1."""
    lcs = _lcs_len(list(sys_tokens), list(ref_tokens))
    precision = lcs / len(sys_tokens) if sys_tokens else 0.0
    recall = lcs / len(ref_tokens) if ref_tokens else 0.0
    return RougeScore.from_pr(precision, recall)


@dataclass(frozen=True)
class AlignmentPattern:
    """perm[k] is the oracle sentence index (0-based) assigned to system
    sentence k; pattern strings use 1-based digits, e.g. "213"."""

    perm: tuple[int, int, int]
    slot_scores: tuple[RougeScore, RougeScore, RougeScore]

    @property
    def pattern(self) -> str:
        return "".join(str(i + 1) for i in self.perm)

    @property
    def mean_f1(self) -> float:
        return sum(s.f1 for s in self.slot_scores) / 3.0


def pairwise_align(sys_sents, ref_sents) -> AlignmentPattern:
    """Assign each system sentence to a distinct oracle sentence, maximizing
    mean ROUGE-L F1 over the 6 bijections; ties break to the smallest
    pattern string."""
    if len(sys_sents) != 3 or len(ref_sents) != 3:
        raise ValueError(
            f"pairwise_align expects 3 sentences each, got {len(sys_sents)} and {len(ref_sents)}"
        )
    cell = [[rouge_l(s, r) for r in ref_sents] for s in sys_sents]
    best = None
    best_key = None
    for perm in itertools.permutations(range(3)):
        scores = tuple(cell[k][perm[k]] for k in range(3))
        mean = sum(s.f1 for s in scores) / 3.0
        pattern = "".join(str(i + 1) for i in perm)
        key = (-mean, pattern)
        if best_key is None or key < best_key:
            best_key = key
            best = AlignmentPattern(perm=perm, slot_scores=scores)
    return best


# -- classification metrics --------------------------------------------------


def classification_report(preds, golds) -> dict:
    """Per-class precision/recall/F1 over ``BINARY_CLASSES`` plus overall
    accuracy from label lists."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(golds)} golds")
    report: dict = {"per_class": {}, "accuracy": 0.0, "n": len(golds)}
    correct = sum(1 for p, g in zip(preds, golds) if p == g)
    report["accuracy"] = correct / len(golds) if golds else 0.0
    for cls in BINARY_CLASSES:
        tp = sum(1 for p, g in zip(preds, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(preds, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(preds, golds) if p != cls and g == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        report["per_class"][cls] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": tp + fn,
        }
    return report


def annotation_stats(labeled_pairs_by_split: dict) -> dict:
    """Counts of each 4-way structure label per split, plus totals.

    Input maps split name -> iterable of NewsPair (or of StructureLabel).
    Unlabeled pairs are rejected.
    """
    table: dict = {lab.value: {} for lab in StructureLabel}
    splits = list(labeled_pairs_by_split)
    for split, items in labeled_pairs_by_split.items():
        counts = Counter()
        for item in items:
            label = item if isinstance(item, StructureLabel) else item.label
            if label is None:
                raise ValueError(f"unlabeled pair in split {split!r}")
            counts[label.value] += 1
        for lab in table:
            table[lab][split] = counts.get(lab, 0)
    for lab in table:
        table[lab]["total"] = sum(table[lab][s] for s in splits)
    return table


# -- per-sentence breakdown (report machinery) -------------------------------


@dataclass
class DocumentScores:
    """Evaluation record for one document: per-position scores for each
    metric, the gold structure class, and the chosen alignment pattern."""

    doc_id: str
    per_position: list[dict[str, RougeScore]]  # 3 slots, keys "rouge_1/2/l"
    gold_class: str | None = None
    pattern: str | None = None

    def to_json(self) -> dict:
        return {
            "id": self.doc_id,
            "gold_class": self.gold_class,
            "pattern": self.pattern,
            "positions": [
                {m: [s.precision, s.recall, s.f1] for m, s in pos.items()}
                for pos in self.per_position
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DocumentScores":
        """Inverse of ``to_json``; a record of any other shape raises
        ValueError naming the field.  The id is read as a corpus id is: a
        string or an integer, kept as a string."""
        positions = obj.get("positions")
        if "id" not in obj or not isinstance(positions, list) or len(positions) != 3:
            raise ValueError("needs an 'id' and a list of 3 'positions'")
        gold_class, pattern = obj.get("gold_class"), obj.get("pattern")
        if gold_class is not None and gold_class not in BINARY_CLASSES:
            raise ValueError(f"'gold_class' must be null or one of {BINARY_CLASSES}, "
                             f"got {gold_class!r}")
        if pattern is not None and pattern not in _PATTERNS:
            raise ValueError(f"'pattern' must be null or a permutation of '123', got {pattern!r}")
        per_position = [{m: _score_from_json(pos, m) for m in _METRICS} for pos in positions]
        return cls(_parse_id(obj), per_position, gold_class, pattern)


def _score_from_json(pos, metric: str) -> RougeScore:
    vals = pos.get(metric) if isinstance(pos, dict) else None
    if not (isinstance(vals, list) and len(vals) == 3
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals)):
        raise ValueError(f"each position needs {metric!r} as 3 numbers")
    for name, v in zip(("precision", "recall", "f1"), vals):
        if not 0.0 <= v <= 1.0:  # false for NaN too
            raise ValueError(f"{metric!r} {name} must be a finite number in [0, 1], got {v!r}")
    return RougeScore(*vals)


def score_summary_positions(sys_sents, ref_sents) -> list[dict[str, RougeScore]]:
    """Position-by-position ROUGE-1/2/L between two 3-sentence summaries."""
    if len(sys_sents) != 3 or len(ref_sents) != 3:
        raise ValueError("expected 3 sentences on both sides")
    out = []
    for s, r in zip(sys_sents, ref_sents):
        out.append(
            {
                "rouge_1": rouge_n(s, r, 1),
                "rouge_2": rouge_n(s, r, 2),
                "rouge_l": rouge_l(s, r),
            }
        )
    return out


_METRICS = ("rouge_1", "rouge_2", "rouge_l")
_PATTERNS = tuple("".join(p) for p in itertools.permutations("123"))
_POSITIONS = ("1st", "2nd", "3rd")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def breakdown_report(results: list[DocumentScores]) -> dict:
    """Mean F1 per sentence position and per gold-class subset, plus the
    alignment-pattern histogram with percentages."""
    subsets = {"all": results}
    for cls in BINARY_CLASSES:
        subsets[cls] = [r for r in results if r.gold_class == cls]

    tables: dict = {}
    for name, docs in subsets.items():
        rows = {}
        for k, pos_name in enumerate(_POSITIONS):
            rows[pos_name] = {
                m: _mean(d.per_position[k][m].f1 for d in docs) for m in _METRICS
            }
        rows["ave"] = {m: _mean(rows[p][m] for p in _POSITIONS) for m in _METRICS}
        tables[name] = {"n": len(docs), "rows": rows}

    histogram = pattern_histogram(r.pattern for r in results if r.pattern is not None)
    return {"tables": tables, "pattern_histogram": histogram}


def pattern_histogram(patterns) -> dict:
    """``{pattern: {"count", "percent"}}`` over alignment patterns, most
    frequent first and ties by pattern."""
    counts = Counter(patterns)
    total = sum(counts.values())
    return {
        pat: {"count": c, "percent": 100.0 * c / total}
        for pat, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    }


def format_breakdown_tsv(report: dict) -> str:
    lines = ["subset\tposition\trouge_1\trouge_2\trouge_l"]
    for subset, tbl in report["tables"].items():
        for pos in (*_POSITIONS, "ave"):
            row = tbl["rows"][pos]
            lines.append(
                f"{subset}\t{pos}\t{row['rouge_1']:.4f}\t{row['rouge_2']:.4f}\t{row['rouge_l']:.4f}"
            )
    lines.append("")
    lines.append("pattern\tcount\tpercent")
    for pat, h in report["pattern_histogram"].items():
        lines.append(f"{pat}\t{h['count']}\t{h['percent']:.1f}")
    return "\n".join(lines)


def format_breakdown_pretty(report: dict) -> str:
    out = []
    for subset, tbl in report["tables"].items():
        out.append(f"== {subset} (n={tbl['n']}) ==")
        out.append(f"{'':6s} {'R-1':>8s} {'R-2':>8s} {'R-L':>8s}")
        for pos in (*_POSITIONS, "ave"):
            row = tbl["rows"][pos]
            out.append(
                f"{pos:6s} {100 * row['rouge_1']:8.2f} {100 * row['rouge_2']:8.2f} "
                f"{100 * row['rouge_l']:8.2f}"
            )
    if report["pattern_histogram"]:
        out.append("== alignment patterns ==")
        for pat, h in report["pattern_histogram"].items():
            out.append(f"{pat}  {h['count']:6d}  ({h['percent']:.1f}%)")
    return "\n".join(out)
