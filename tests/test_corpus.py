"""JSONL ingestion, preprocessing, vocabulary, splits, synthetic generator."""

import hashlib
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from b3sum import corpus
from b3sum.corpus import (
    CorpusError,
    NewsPair,
    StructureLabel,
    Vocabulary,
    build_vocab,
    load_jsonl,
    load_summary_file,
    preprocess,
    save_jsonl,
    split_pairs,
    synth_generate,
)
from helpers import traced_peak


def _pair(i="p1", n_article=5, label=None):
    return NewsPair(
        id=i,
        article=[f"w{k}" for k in range(n_article)],
        summary=[["a", "b"], ["c", "d"], ["e", "f"]],
        label=label,
    )


class TestJsonl:
    def test_round_trip(self, tmp_path):
        pairs = synth_generate(seed=3, n=4)
        path = tmp_path / "c.jsonl"
        save_jsonl(pairs, path)
        loaded = load_jsonl(path)
        assert [p.to_json() for p in loaded] == [p.to_json() for p in pairs]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        assert load_jsonl(path) == []

    def test_two_sentence_summary_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "article": "x y", "summary": ["a", "b", "c"]})
        bad = json.dumps({"id": "b", "article": "x y", "summary": ["a", "b"]})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(CorpusError, match="line 2: summary must have exactly 3 sentences"):
            load_jsonl(path)

    def test_undecodable_and_unconvertible_lines_are_named(self, tmp_path):
        good = json.dumps(_pair().to_json()).encode("utf-8")
        for name, bad, message in [
            ("bytes.jsonl", b"\x80\xff", "line is not valid UTF-8"),
            ("int.jsonl", b"1" * 5000, "integer string conversion"),
        ]:
            path = tmp_path / name
            path.write_bytes(good + b"\n" + bad + b"\n")
            with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: line 2: .*{message}"):
                load_jsonl(path)

    def test_missing_field_and_bad_label(self, tmp_path):
        for name, line, message in [
            ("field.jsonl", json.dumps({"id": "a", "summary": ["a", "b", "c"]}),
             "missing required field 'article'"),
            ("label.jsonl", json.dumps({"id": "b", "article": "x", "summary": ["a", "b", "c"],
                                        "label": "zigzag"}),
             "invalid label string 'zigzag'"),
            ("json.jsonl", "{not json", "Expecting property name"),
        ]:
            path = tmp_path / name
            path.write_text(line + "\n")
            with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: line 1: {message}"):
                load_jsonl(path)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "l.jsonl"
        save_jsonl([_pair(label=StructureLabel.SEQUENCE_SEG)], path)
        loaded = load_jsonl(path)
        assert loaded[0].label is StructureLabel.SEQUENCE_SEG

    def test_summary_file_allows_empty_sentences(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"id": "d1", "summary": ["a b", "", "c"]}) + "\n")
        out = load_summary_file(path)
        assert out["d1"] == [["a", "b"], [], ["c"]]

    @pytest.mark.parametrize("load, field, message", [
        (load_jsonl, {"id": None}, "id must be a string or an integer, got NoneType"),
        (load_jsonl, {"id": True}, "id must be a string or an integer, got bool"),
        (load_jsonl, {"article": ["x", "y"]}, "article must be a string, got list"),
        (load_jsonl, {"summary": ["s one", {"k": 1}, 5]},
         "summary sentence 2 must be a string, got dict"),
        (load_jsonl, {"category": {"k": [1]}}, "category must be a string or null, got dict"),
        (load_summary_file, {"id": None}, "id must be a string or an integer, got NoneType"),
        (load_summary_file, {"id": False}, "id must be a string or an integer, got bool"),
        (load_summary_file, {"summary": ["a", 5, "c"]},
         "summary sentence 2 must be a string, got int"),
    ], ids=["corpus-id-null", "corpus-id-bool", "corpus-article-list", "corpus-sentence-object",
            "corpus-category-object", "summaries-id-null", "summaries-id-bool",
            "summaries-sentence-int"])
    def test_fields_are_not_coerced(self, tmp_path, load, field, message):
        path = tmp_path / "c.jsonl"
        record = {"id": "a", "article": "x y", "summary": ["a", "b", "c"]} | field
        path.write_text(json.dumps(_pair().to_json()) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: line 2: {message}"):
            load(path)

    def test_integer_ids_are_read_as_strings(self, tmp_path):
        corpus, summaries = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        corpus.write_text(json.dumps(_pair().to_json() | {"id": 7}) + "\n")
        summaries.write_text(json.dumps({"id": 7, "summary": ["a", "b", "c"]}) + "\n")
        assert load_jsonl(corpus)[0].id == "7"
        assert list(load_summary_file(summaries)) == ["7"]

    def test_corpus_rejects_a_repeated_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_jsonl([_pair("a"), _pair("b"), _pair("a")], path)
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: line 3: repeated id 'a'"):
            load_jsonl(path)

    def test_summary_file_rejects_a_repeated_id(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("".join(json.dumps({"id": i, "summary": [i, "b", "c"]}) + "\n"
                                for i in ("a", "b", "a")))
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: line 3: repeated id 'a'"):
            load_summary_file(path)


class TestStructureLabel:
    def test_binary_projection_total(self):
        assert StructureLabel.PARALLEL.binary == "parallel"
        assert StructureLabel.PARALLEL_ENUM.binary == "parallel"
        assert StructureLabel.SEQUENCE.binary == "sequence"
        assert StructureLabel.SEQUENCE_SEG.binary == "sequence"

    def test_binary_index(self):
        assert StructureLabel.PARALLEL.binary_index == 0
        assert StructureLabel.SEQUENCE_SEG.binary_index == 1


class TestPreprocess:
    def test_truncates_to_first_max_src_len_tokens(self):
        pair = _pair(n_article=500)
        out, report = preprocess([pair], max_src_len=400, min_summary_len=0)
        assert out[0].article == pair.article[:400]
        assert report.truncated == 1

    def test_drops_short_summaries(self):
        out, report = preprocess([_pair()], max_src_len=400, min_summary_len=70)
        assert out == []
        assert report.dropped_short_summary == 1

    def test_min_zero_keeps_everything(self):
        out, report = preprocess([_pair(), _pair("p2")], max_src_len=400, min_summary_len=0)
        assert len(out) == 2
        assert report.kept == 2 and report.dropped_short_summary == 0

    def test_boundary_is_inclusive(self):
        out, _ = preprocess([_pair()], max_src_len=400, min_summary_len=6)
        assert len(out) == 1  # exactly 6 summary tokens survives


class TestVocabulary:
    def test_specials_fixed(self):
        v = Vocabulary(["x"])
        assert v.id("<pad>") == 0 and v.id("<unk>") == 1
        assert v.id("<s>") == 2 and v.id("</s>") == 3 and v.id("<sb>") == 4
        assert v.id("x") == 5

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["x"])
        assert v.id("nope") == Vocabulary.UNK

    def test_duplicate_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            Vocabulary(["x", "x"])

    def test_save_load(self, tmp_path):
        v = Vocabulary(["alpha", "beta"])
        v.save(tmp_path / "v.json")
        w = Vocabulary.load(tmp_path / "v.json")
        assert w.size == v.size and w.id("beta") == v.id("beta")

    @pytest.mark.parametrize("tokens, first_repeat", [
        (["x", "y", "y", "x"], "y"),
        (["x", "y", "x", "y", "y"], "x"),
        (["x", "<sb>", "x"], "<sb>"),
        ((t for t in ["a", "b", "<pad>", "a"]), "<pad>"),
        ((t for t in ["a", "b", "c", "b"]), "b"),
    ])
    def test_duplicate_error_names_the_first_repeated_token(self, tokens, first_repeat):
        with pytest.raises(CorpusError) as exc:
            Vocabulary(tokens)
        assert str(exc.value) == f"duplicate vocabulary token {first_repeat!r}"

    def test_tokens_from_a_generator_are_read_once(self):
        v = Vocabulary(t for t in ["a", "b"])
        assert v.content_tokens() == ["a", "b"] and v.id("b") == 6
        assert v.encode(["b", "zz", "<s>", "a"]) == [6, Vocabulary.UNK, Vocabulary.START, 5]


def _counting_corpus(text_tokens):
    return [
        NewsPair(
            id="c", article=text_tokens, summary=[["s"], ["s"], ["s"]]
        )
    ]


class TestBuildVocab:
    def test_min_count_rule(self):
        v = build_vocab(_counting_corpus(["a", "a", "b"]), mode="min_count", min_count=2)
        assert "a" in v and "b" not in v
        assert "s" in v  # summary tokens count too (appears 3x)

    def test_cap_keeps_most_frequent(self):
        v = build_vocab(_counting_corpus(["a", "a", "b"]), mode="cap", size=2)
        assert "a" in v and "s" in v and "b" not in v

    def test_deterministic_assignment(self):
        pairs = synth_generate(seed=5, n=10)
        v1 = build_vocab(pairs, mode="cap", size=30)
        v2 = build_vocab(pairs, mode="cap", size=30)
        assert [v1.token(i) for i in range(v1.size)] == [v2.token(i) for i in range(v2.size)]

    def test_frequency_ties_broken_by_first_occurrence(self):
        v = build_vocab(_counting_corpus(["zz", "aa"]), mode="cap", size=1)
        assert "s" in v  # "s" appears 3 times, beats both
        v2 = build_vocab(_counting_corpus(["zz", "aa", "zz", "aa"]), mode="cap", size=2)
        assert "zz" in v2 and "s" in v2

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([], mode="cap")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_vocab(_counting_corpus(["a"]), mode="top")


# A few tokens, specials among them, so frequencies tie often.
_TIED_TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d", "e", *Vocabulary.SPECIALS]),
                        min_size=1, max_size=12)
_TIED_PAIRS = st.lists(st.builds(lambda art, s1, s2, s3: NewsPair("p", art, [s1, s2, s3]),
                                 _TIED_TOKENS, _TIED_TOKENS, _TIED_TOKENS, _TIED_TOKENS),
                       min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(pairs=_TIED_PAIRS, size=st.integers(0, 7), min_count=st.integers(1, 6))
def test_build_vocab_keeps_the_reference_order(pairs, size, min_count):
    for mode in ("cap", "min_count"):
        v = build_vocab(pairs, mode=mode, size=size, min_count=min_count)
        want = oracles.build_vocab(pairs, mode=mode, size=size, min_count=min_count)
        assert v.content_tokens() == want
        ids = {t: i for i, t in enumerate([*Vocabulary.SPECIALS, *want])}
        for p in pairs:
            assert v.encode(p.article) == [ids.get(t, Vocabulary.UNK) for t in p.article]


class TestSplit:
    def test_explicit_sizes_disjoint_cover(self):
        pairs = synth_generate(seed=1, n=4)
        tr, dev, te = split_pairs(pairs, sizes=(2, 1, 1), seed=0)
        ids = [p.id for p in tr + dev + te]
        assert len(ids) == 4 and len(set(ids)) == 4

    def test_same_seed_same_split(self):
        pairs = synth_generate(seed=1, n=20)
        a = split_pairs(pairs, sizes=(10, 5, 5), seed=9)
        b = split_pairs(pairs, sizes=(10, 5, 5), seed=9)
        assert [p.id for p in a[0]] == [p.id for p in b[0]]

    def test_oversized_request_rejected(self):
        with pytest.raises(CorpusError, match="exceed"):
            split_pairs(synth_generate(seed=1, n=3), sizes=(3, 1, 1))

    @pytest.mark.parametrize("sizes, name", [((3, -1, 2), "dev"), ((-2, 1, 1), "train"),
                                             ((1, 1, -1), "test")])
    def test_a_negative_size_is_rejected_by_name(self, sizes, name):
        """(3, -1, 2) on 5 pairs once put one pair in both train and test."""
        with pytest.raises(CorpusError, match=rf"^{name} split size must be >= 0, got -\d$"):
            split_pairs(synth_generate(seed=1, n=5), sizes=sizes)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(seed=7, n=10)
        b = synth_generate(seed=7, n=10)
        assert [p.to_json() for p in a] == [p.to_json() for p in b]

    def test_structure_mix_one_is_all_parallel(self):
        pairs = synth_generate(seed=2, n=25, structure_mix=1.0)
        assert all(p.label is StructureLabel.PARALLEL for p in pairs)

    def test_subject_entity_rule_recovers_gold_labels(self):
        # By construction the third sentence's subject is sentence 1's
        # entity for parallel pairs and sentence 2's for sequence pairs.
        for pair in synth_generate(seed=9, n=120, oov_rate=0.3, structure_mix=0.7):
            subj1, subj2, subj3 = (s[0] for s in pair.summary)
            assert subj1 != subj2
            if subj3 == subj1:
                derived = StructureLabel.PARALLEL
            elif subj3 == subj2:
                derived = StructureLabel.SEQUENCE
            else:
                raise AssertionError("third sentence subject matches neither")
            assert derived is pair.label

    def test_articles_contain_all_summary_facts(self):
        for pair in synth_generate(seed=4, n=30):
            text = " ".join(pair.article)
            for sent in pair.summary:
                assert " ".join(sent) in text

    def test_three_sentences_and_oov_rate_zero(self):
        pairs = synth_generate(seed=3, n=15, oov_rate=0.0)
        lexicon_vocab = build_vocab(pairs, mode="min_count", min_count=1)
        for p in pairs:
            assert len(p.summary) == 3
            assert all(t in lexicon_vocab for t in p.article)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            synth_generate(seed=1, n=0)

    @pytest.mark.parametrize("name", ["oov_rate", "structure_mix"])
    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5, float("inf"), -float("inf")])
    def test_a_rate_outside_0_1_is_rejected_by_name(self, name, rate):
        """A NaN rate once gave an all-sequence corpus with no OOV names."""
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {rate!r}$"):
            synth_generate(seed=1, n=200, **{name: rate})

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_a_bad_seed_fails_as_default_rng_fails(self, seed):
        with pytest.raises((ValueError, TypeError)) as want:
            np.random.default_rng(seed)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            synth_generate(seed=seed, n=1)

    # sha256 of save_jsonl's bytes; a numpy change to choice or integers
    # moves the reference and the replay together, and these catch it
    PINNED = [
        ((1, 300, 0.1, 0.7), "53e5ffb2828c1e1e8892a520f39d7b4fdfa1ec8efda7262261e941566050d7e0"),
        ((7, 50, 0.5, 0.5), "468567af5466630c7a3913f7e036481b538f2d5688f5509ada7399e6979e175b"),
        ((0, 20, 1.0, 0.0), "044e015211cb0934d7e56bbb5d799dafe5044c523bfe5376a1a7dc7a53744ccb"),
    ]

    @pytest.mark.parametrize("args, digest", PINNED)
    def test_corpus_bytes_are_pinned(self, tmp_path, args, digest):
        save_jsonl(synth_generate(*args), tmp_path / "c.jsonl")
        assert hashlib.sha256((tmp_path / "c.jsonl").read_bytes()).hexdigest() == digest


_RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


# the corpus sizes at and around the first two block boundaries
_BOUNDARIES = [k * corpus._BLOCK_PAIRS + d for k in (1, 2) for d in (-1, 0, 1)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64),
       n=st.integers(1, 2 * corpus._BLOCK_PAIRS + 40) | st.sampled_from(_BOUNDARIES),
       oov_rate=_RATES, structure_mix=_RATES)
def test_synth_generate_matches_the_generator_reference(seed, n, oov_rate, structure_mix):
    got = synth_generate(seed, n, oov_rate, structure_mix)
    want = oracles.synth_generate(seed, n, oov_rate, structure_mix)
    assert [p.to_json() for p in got] == [p.to_json() for p in want]


def test_a_redrawn_draw_is_replayed_and_later_blocks_start_on_the_buffered_half(monkeypatch):
    """Seed 224's 2000 all-OOV pairs hold one 900-bound draw that Lemire
    redraws (796 of the 2**32 low halves are).  ``_draw_pair`` draws that
    pair on the generator in 27 32-bit draws: 22, four for the two OOV
    names and the redraw.  The odd count leaves a half buffered, so every
    later block starts on it."""
    fallbacks, block_starts = [], []
    draw_pair, replay = corpus._draw_pair, corpus._replay_block

    def counting_draw_pair(rng, *rates):
        fallbacks.append(block_starts[-1:])
        return draw_pair(rng, *rates)

    def recording_replay(draws, count, *rates):
        block_starts.append(draws.high is not None)
        return replay(draws, count, *rates)

    monkeypatch.setattr(corpus, "_draw_pair", counting_draw_pair)
    monkeypatch.setattr(corpus, "_replay_block", recording_replay)
    args = (224, 2000, 1.0, 0.5)
    got = synth_generate(*args)
    assert [p.to_json() for p in got] == [p.to_json() for p in oracles.synth_generate(*args)]
    assert fallbacks == [[False]]
    assert block_starts[0] is False and len(block_starts) > 2 and all(block_starts[1:])


def _position(bits):
    """Where the PCG64 ``bits`` stands: its state and its buffered half, or
    None (numpy leaves a spent half in ``uinteger``)."""
    state = bits.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


# Lemire redraws about a third of the pairs' low halves below this
_FORCED_THRESHOLDS = np.full(26, 2**26, np.int64)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**64), count=st.integers(1, 40), lead=st.integers(0, 3),
       oov_rate=_RATES, structure_mix=_RATES, stop_early=st.booleans())
def test_the_block_replay_matches_the_generator_from_either_half(
        seed, count, lead, oov_rate, structure_mix, stop_early):
    """``_replay_block`` against ``_draw_pair`` on a ``Generator`` in the
    same state: after ``lead`` draws of ``integers(0, 2)``, so an odd
    ``lead`` starts the block on a buffered half.  ``stop_early`` raises
    every Lemire threshold to 2**26, so about a third of the pairs stop the
    block, which must leave the stream where the generator stands after the
    pairs before them."""
    block_rng, pair_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (block_rng, pair_rng):
        for _ in range(lead):
            rng.integers(0, 2)
    draws = corpus._Draws(block_rng.bit_generator)
    draws.resume()
    with pytest.MonkeyPatch.context() as mp:
        if stop_early:
            mp.setattr(corpus, "_THRESHOLDS", _FORCED_THRESHOLDS)
        got = corpus._replay_block(draws, count, oov_rate, structure_mix)
    want = [corpus._draw_pair(pair_rng, oov_rate, structure_mix) for _ in got]
    assert got == want
    draws.release()
    assert _position(block_rng.bit_generator) == _position(pair_rng.bit_generator)


class TestDraws:
    """``corpus._Draws``: how it reads the stream and hands it to numpy."""

    @pytest.mark.parametrize("raw_block", [3, 17, 4096])
    def test_a_stopped_block_hands_the_generator_the_next_unread_word(
            self, monkeypatch, raw_block):
        """With every Lemire threshold at 2**26 about a third of the pairs
        stop their block and are drawn by the generator.  Seed 224's pair 184
        holds a draw that numpy really redraws, which leaves a half buffered,
        so the later hand-offs start on it.  ``release`` must rewind the
        stream to the next unread word, through ``advance`` by a full period
        less the words read ahead, and leave ``high`` as its buffered half."""
        monkeypatch.setattr(corpus, "_THRESHOLDS", _FORCED_THRESHOLDS)
        monkeypatch.setattr(corpus, "_RAW_BLOCK", raw_block)
        parities, release = [], corpus._Draws.release

        def checked_release(draws):
            ahead = np.random.PCG64()
            ahead.state = draws._bits.state
            unread = [*draws._words[draws._next:].tolist(), int(ahead.random_raw())]
            high = draws.high
            release(draws)
            rewound = np.random.PCG64()
            rewound.state = state = draws._bits.state
            assert (state["has_uint32"], state["uinteger"]) == (
                (0, 0) if high is None else (1, high))
            assert rewound.random_raw(len(unread)).tolist() == unread, \
                "PCG64.advance did not rewind to the next unread word"
            parities.append(high is not None)

        monkeypatch.setattr(corpus._Draws, "release", checked_release)
        for args in [(seed, 60, oov_rate, 0.5) for seed, oov_rate
                     in itertools.product(range(6), (0.0, 0.3, 1.0))] + [(224, 260, 1.0, 0.5)]:
            got = synth_generate(*args)
            assert [p.to_json() for p in got] == [p.to_json() for p in oracles.synth_generate(*args)]
        assert len(parities) > 100 and set(parities) == {False, True}

    def test_a_large_corpus_reads_one_block_at_a_time(self, monkeypatch):
        """10**5 pairs read their words ``_RAW_BLOCK`` at a time and are
        replayed at most ``_BLOCK_PAIRS`` at a time.  No array grows with n:
        the traced peak stays within the pairs list plus 1 MiB, where the
        block's working set is about 0.45 MiB and one int64 per pair would
        add 0.76 MiB."""
        sizes, counts = [], []
        draws, replay = corpus._Draws, corpus._replay_block

        class Recording:
            def __init__(self, bits):
                self.bits = bits

            def random_raw(self, size):
                sizes.append(size)
                return self.bits.random_raw(size)

        def recording_replay(block_draws, count, *rates):
            counts.append(count)
            return replay(block_draws, count, *rates)

        monkeypatch.setattr(corpus, "_Draws", lambda bits: draws(Recording(bits)))
        monkeypatch.setattr(corpus, "_replay_block", recording_replay)
        monkeypatch.setattr(corpus, "_news_pair", lambda *args: None)  # keep no pairs
        with traced_peak() as traced:
            pairs = synth_generate(seed=3, n=10**5)
        assert len(pairs) == 10**5
        assert len(sizes) > 1 and set(sizes) == {corpus._RAW_BLOCK}
        assert max(counts) == corpus._BLOCK_PAIRS
        assert traced.peak <= sys.getsizeof(pairs) + 2**20


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
_FIELDS = st.sampled_from(["id", "article", "summary", "label", "category"])
_OBJECT_LINES = st.dictionaries(_FIELDS | st.text(max_size=4), _VALUES, max_size=6).map(json.dumps)
_LINES = st.lists(_OBJECT_LINES | _VALUES.map(json.dumps) | st.text(max_size=20)
                  | st.binary(max_size=20), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(lines=_LINES)
def test_load_jsonl_strict_on_random_lines_fails_only_by_name(lines):
    data = b"\n".join(line if isinstance(line, bytes) else line.encode("utf-8")
                      for line in lines)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.jsonl"
        path.write_bytes(data)
        try:
            pairs = load_jsonl(path)
        except CorpusError as exc:
            assert str(exc).startswith(f"{path}: line "), str(exc)
        else:
            assert len(pairs) <= len(lines)
