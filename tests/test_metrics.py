"""ROUGE fixtures and oracles, alignment search, classification metrics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b3sum.corpus import StructureLabel
from b3sum.metrics import (
    DocumentScores,
    RougeScore,
    annotation_stats,
    breakdown_report,
    classification_report,
    format_breakdown_pretty,
    format_breakdown_tsv,
    pairwise_align,
    rouge_l,
    rouge_n,
    score_summary_positions,
)

# independent brute-force oracles, deliberately written differently ----------


def _oracle_rouge_n(sys_t, ref_t, n):
    sys_grams = [tuple(sys_t[i : i + n]) for i in range(len(sys_t) - n + 1)]
    ref_grams = [tuple(ref_t[i : i + n]) for i in range(len(ref_t) - n + 1)]
    overlap = 0
    remaining = list(ref_grams)
    for g in sys_grams:
        if g in remaining:
            remaining.remove(g)
            overlap += 1
    p = overlap / len(sys_grams) if sys_grams else 0.0
    r = overlap / len(ref_grams) if ref_grams else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def _oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _random_tokens(rng, max_len=12, alphabet="abcde"):
    n = int(rng.integers(0, max_len + 1))
    return [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)]


class TestRougeN:
    def test_identical_sequences(self):
        s = "the quick brown fox".split()
        score = rouge_n(s, s, 1)
        assert score.precision == score.recall == score.f1 == 1.0

    def test_unigram_fixture(self):
        score = rouge_n("a b d".split(), "a b c".split(), 1)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_bigram_fixture(self):
        score = rouge_n("a b c d".split(), "a b c".split(), 2)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(1.0)
        assert score.f1 == pytest.approx(0.8)

    def test_empty_sides(self):
        assert rouge_n([], ["a"], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n(["a"], [], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n(["a"], ["a", "b"], 3).f1 == 0.0  # n longer than both

    def test_clipping(self):
        score = rouge_n(["a", "a", "a"], ["a"], 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == 1.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)

    def test_matches_bruteforce_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s, r = _random_tokens(rng), _random_tokens(rng)
            for n in (1, 2):
                got = rouge_n(s, r, n)
                exp = _oracle_rouge_n(s, r, n)
                assert (got.precision, got.recall, got.f1) == pytest.approx(exp)


class TestRougeL:
    def test_identical(self):
        s = "x y z".split()
        assert rouge_l(s, s).f1 == 1.0

    def test_disjoint(self):
        assert rouge_l("a b".split(), "c d".split()).f1 == 0.0

    def test_lcs_fixture(self):
        score = rouge_l("a c b d".split(), "a b c d".split())
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(0.75)
        assert score.f1 == pytest.approx(0.75)

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s, r = _random_tokens(rng), _random_tokens(rng)
            lcs = _oracle_lcs(s, r)
            got = rouge_l(s, r)
            assert got.precision == pytest.approx(lcs / len(s) if s else 0.0)
            assert got.recall == pytest.approx(lcs / len(r) if r else 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), max_size=10),
        st.lists(st.sampled_from("abc"), max_size=10),
    )
    def test_lcs_symmetry(self, a, b):
        # recall * |ref| equals the LCS length, which is symmetric
        ra, rb = rouge_l(a, b), rouge_l(b, a)
        assert ra.recall * len(b) == pytest.approx(rb.recall * len(a), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10))
    def test_self_similarity(self, tokens):
        assert rouge_l(tokens, tokens).f1 == 1.0


class TestPairwiseAlign:
    def test_identity_alignment(self):
        sents = [["a", "b"], ["c", "d"], ["e", "f"]]
        assert pairwise_align(sents, sents).pattern == "123"

    def test_swapped_first_two(self):
        ref = [["a", "b"], ["c", "d"], ["e", "f"]]
        sys = [ref[1], ref[0], ref[2]]
        assert pairwise_align(sys, ref).pattern == "213"

    def test_requires_three_sentences(self):
        with pytest.raises(ValueError, match="3 sentences"):
            pairwise_align([["a"]], [["a"], ["b"], ["c"]])

    def test_empty_slots_allowed(self):
        result = pairwise_align([[], [], []], [["a"], ["b"], ["c"]])
        assert result.pattern == "123"  # all zero, ties break lexicographically
        assert result.mean_f1 == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            sys_s = [_random_tokens(rng, 6) for _ in range(3)]
            ref_s = [_random_tokens(rng, 6) for _ in range(3)]
            got = pairwise_align(sys_s, ref_s)
            best = None
            for perm in itertools.permutations(range(3)):
                mean = sum(rouge_l(sys_s[k], ref_s[perm[k]]).f1 for k in range(3)) / 3
                pat = "".join(str(i + 1) for i in perm)
                if best is None or (-mean, pat) < best[0]:
                    best = ((-mean, pat), perm)
            assert got.perm == best[1]
            assert got.mean_f1 == pytest.approx(-best[0][0])

    def test_beats_identity_alignment(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            sys_s = [_random_tokens(rng, 5) for _ in range(3)]
            ref_s = [_random_tokens(rng, 5) for _ in range(3)]
            got = pairwise_align(sys_s, ref_s)
            identity = sum(rouge_l(sys_s[k], ref_s[k]).f1 for k in range(3)) / 3
            assert got.mean_f1 >= identity - 1e-12


class TestClassificationReport:
    def test_perfect(self):
        rep = classification_report(["parallel", "sequence"], ["parallel", "sequence"])
        assert rep["accuracy"] == 1.0
        for cls in ("parallel", "sequence"):
            assert rep["per_class"][cls]["f1"] == 1.0

    def test_all_parallel_on_balanced_golds(self):
        preds = ["parallel"] * 4
        golds = ["parallel", "parallel", "sequence", "sequence"]
        rep = classification_report(preds, golds)
        assert rep["accuracy"] == 0.5
        assert rep["per_class"]["parallel"]["recall"] == 1.0
        assert rep["per_class"]["sequence"]["recall"] == 0.0

    def test_hand_computed_confusion(self):
        preds = ["parallel", "parallel", "sequence", "parallel", "sequence"]
        golds = ["parallel", "sequence", "sequence", "parallel", "parallel"]
        rep = classification_report(preds, golds)
        # parallel: tp=2 fp=1 fn=1 -> P=2/3 R=2/3; sequence: tp=1 fp=1 fn=1
        assert rep["per_class"]["parallel"]["precision"] == pytest.approx(2 / 3)
        assert rep["per_class"]["parallel"]["recall"] == pytest.approx(2 / 3)
        assert rep["per_class"]["sequence"]["precision"] == pytest.approx(0.5)
        assert rep["per_class"]["sequence"]["recall"] == pytest.approx(0.5)
        assert rep["accuracy"] == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            classification_report(["parallel"], [])


class TestAnnotationStats:
    def test_empty_input_all_zero(self):
        table = annotation_stats({"dev": [], "test": []})
        for lab in table.values():
            assert lab["dev"] == lab["test"] == lab["total"] == 0

    def test_counts_sum_to_input_size(self):
        labels = [StructureLabel.PARALLEL] * 3 + [StructureLabel.SEQUENCE] * 2
        table = annotation_stats({"dev": labels})
        assert sum(row["dev"] for row in table.values()) == 5

    def test_unlabeled_pair_rejected(self):
        from helpers import tiny_corpus

        pairs, _, _ = tiny_corpus(n=2)
        pairs[0].label = None
        with pytest.raises(ValueError, match="unlabeled"):
            annotation_stats({"dev": pairs})


class TestBreakdownReport:
    def _doc(self, doc_id, f1, gold, pattern):
        pos = [
            {m: RougeScore(f1, f1, f1) for m in ("rouge_1", "rouge_2", "rouge_l")}
            for _ in range(3)
        ]
        return DocumentScores(doc_id=doc_id, per_position=pos, gold_class=gold, pattern=pattern)

    def test_single_document_constant_scores(self):
        report = breakdown_report([self._doc("d", 0.5, "parallel", "123")])
        rows = report["tables"]["all"]["rows"]
        for pos in ("1st", "2nd", "3rd", "ave"):
            for m in ("rouge_1", "rouge_2", "rouge_l"):
                assert rows[pos][m] == pytest.approx(0.5)

    def test_histogram_percentages_sum_to_100(self):
        docs = [
            self._doc(f"d{i}", 0.3, "parallel" if i % 2 else "sequence", pat)
            for i, pat in enumerate(["123", "123", "132", "213", "123"])
        ]
        report = breakdown_report(docs)
        total = sum(h["percent"] for h in report["pattern_histogram"].values())
        assert total == pytest.approx(100.0)
        assert report["pattern_histogram"]["123"]["count"] == 3

    def test_subset_rows_use_gold_class(self):
        docs = [self._doc("a", 1.0, "parallel", "123"), self._doc("b", 0.0, "sequence", "321")]
        report = breakdown_report(docs)
        assert report["tables"]["parallel"]["rows"]["ave"]["rouge_l"] == 1.0
        assert report["tables"]["sequence"]["rows"]["ave"]["rouge_l"] == 0.0
        assert report["tables"]["all"]["rows"]["ave"]["rouge_l"] == 0.5

    def test_json_round_trip(self):
        sys_s, ref_s = [["a", "b"], ["c"], []], [["a"], ["c", "d"], ["e"]]
        doc = DocumentScores("d", score_summary_positions(sys_s, ref_s), "sequence", "132")
        assert DocumentScores.from_json(doc.to_json()) == doc
        assert DocumentScores.from_json(self._doc("e", 0.5, None, None).to_json()).gold_class is None
        assert DocumentScores.from_json(doc.to_json() | {"id": 7}).doc_id == "7"

    @pytest.mark.parametrize("change, message", [
        ({"positions": None}, "list of 3 'positions'"),
        ({"positions": [{}] * 2}, "list of 3 'positions'"),
        ({"positions": [{"rouge_1": [0, 0, 0]}] * 3}, "'rouge_2' as 3 numbers"),
        ({"positions": [5] * 3}, "'rouge_1' as 3 numbers"),
        ({"pattern": [1]}, r"'pattern' must be null or a permutation of '123', got \[1\]"),
        ({"pattern": "xyz"}, "'pattern' must be null or a permutation of '123', got 'xyz'"),
        ({"pattern": "112"}, "'pattern' must be null or a permutation of '123', got '112'"),
        ({"gold_class": "bogus"},
         r"'gold_class' must be null or one of \('parallel', 'sequence'\), got 'bogus'"),
        ({"gold_class": 1}, r"'gold_class' must be null or one of .*, got 1"),
        ({"id": [1, 2]}, "id must be a string or an integer, got list"),
        ({"id": True}, "id must be a string or an integer, got bool"),
        ({"positions": [{m: [math.nan, 0.5, 0.5] for m in ("rouge_1", "rouge_2", "rouge_l")}] * 3},
         r"'rouge_1' precision must be a finite number in \[0, 1\], got nan"),
        ({"positions": [{"rouge_1": [0.5, 0.5, 0.5], "rouge_2": [0.5, math.inf, 0.5],
                         "rouge_l": [0.5, 0.5, 0.5]}] * 3},
         r"'rouge_2' recall must be a finite number in \[0, 1\], got inf"),
        ({"positions": [{"rouge_1": [0.5, 0.5, 0.5], "rouge_2": [0.5, 0.5, 0.5],
                         "rouge_l": [0, 0, 1.5]}] * 3},
         r"'rouge_l' f1 must be a finite number in \[0, 1\], got 1.5"),
        ({"positions": [{m: [-1, 0, 0] for m in ("rouge_1", "rouge_2", "rouge_l")}] * 3},
         r"'rouge_1' precision must be a finite number in \[0, 1\], got -1"),
    ], ids=["no-positions", "two-positions", "missing-metric", "position-not-object",
            "pattern-not-a-string", "pattern-not-a-permutation", "pattern-repeats-a-slot",
            "unknown-gold-class", "gold-class-not-a-string", "id-a-list", "id-a-bool", "nan-score", "inf-score", "score-above-one",
            "negative-score"])
    def test_from_json_rejects_other_shapes(self, change, message):
        obj = self._doc("d", 0.5, "parallel", "123").to_json() | change
        with pytest.raises(ValueError, match=message):
            DocumentScores.from_json(obj)
        with pytest.raises(ValueError, match="needs an 'id'"):
            DocumentScores.from_json({k: v for k, v in obj.items() if k != "id"})

    def test_formatters_run(self):
        docs = [self._doc("a", 0.25, "parallel", "132")]
        report = breakdown_report(docs)
        assert "132" in format_breakdown_tsv(report)
        assert "R-1" in format_breakdown_pretty(report)


class TestScoreSummaryPositions:
    def test_positions_scored_independently(self):
        sys_s = [["a"], ["b"], ["c"]]
        ref_s = [["a"], ["x"], ["c"]]
        pos = score_summary_positions(sys_s, ref_s)
        assert pos[0]["rouge_1"].f1 == 1.0
        assert pos[1]["rouge_1"].f1 == 0.0
        assert pos[2]["rouge_l"].f1 == 1.0

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            score_summary_positions([["a"]], [["a"], ["b"], ["c"]])


def test_pure_functions_bit_identical():
    s, r = "a b c a".split(), "b a c".split()
    assert rouge_n(s, r, 2) == rouge_n(s, r, 2)
    assert rouge_l(s, r) == rouge_l(s, r)
