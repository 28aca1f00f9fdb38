"""Reading-ease scorer: anchors, segmentation, syllables, frozen corpus."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convoforge.textmetrics import (
    TextStats,
    UnscorableTextError,
    _next_visible,
    _parts_syllables,
    flesch_reading_ease,
    is_conversational,
    segment_sentences,
    tokenize_words,
)


def test_single_word_sentence_hits_formula_ceiling():
    stats = flesch_reading_ease("Go.")
    assert stats.sentence_count == 1
    assert stats.word_count == 1
    assert stats.syllable_count == 1
    assert stats.flesch_score == pytest.approx(121.22, abs=0.01)


def test_worked_example_scores_low_eighties(pool_answer):
    stats = flesch_reading_ease(pool_answer)
    assert stats.sentence_count == 3
    assert stats.word_count == 54
    assert 81.0 <= stats.flesch_score <= 85.0


def test_score_is_not_clamped_or_rounded():
    dense = (
        "Institutional organizational restructuring necessitates "
        "comprehensive documentation requirements unconditionally."
    )
    stats = flesch_reading_ease(dense)
    assert stats.flesch_score < 0
    # full float precision, no rounding to one decimal
    assert stats.flesch_score != round(stats.flesch_score, 1)


class TestSegmentation:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Dr. Smith went home.", 1),
            ("Mr. and Mrs. Lee arrived. They sat down.", 2),
            ("The rate rose 3.5 percent. Everyone noticed.", 2),
            ("Claiborne H. Kinnard Jr. passed away in 1966.", 1),
            ("He arrived at 5 p.m. and left.", 1),
            ("Really?! Yes.", 2),
            ("It works... mostly. Sometimes it fails.", 2),
            ("Wait! What happened? Tell me.", 3),
        ],
    )
    def test_boundary_cases(self, text, expected):
        assert len(segment_sentences(text)) == expected

    def test_trailing_fragment_is_kept(self):
        sentences = segment_sentences("First point. Second part without an end")
        assert sentences[-1] == "Second part without an end"

    def test_lowercase_continuation_does_not_split(self):
        # mid-sentence periods followed by lowercase read as one sentence
        assert len(segment_sentences("First point. second part runs on")) == 1

    def test_empty_text(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n  ") == []

    @given(st.lists(st.sampled_from(["He ran.", "She won!", "Why not?", "Stop."]),
                    min_size=1, max_size=20))
    def test_no_words_lost_at_boundaries(self, parts):
        text = " ".join(parts)
        from_segments = [w for s in segment_sentences(text) for w in tokenize_words(s)]
        assert from_segments == tokenize_words(text)


class TestTokenization:
    def test_punctuation_stripped_apostrophes_kept(self):
        assert tokenize_words('"Hello," she said -- twice.') == [
            "Hello", "she", "said", "twice",
        ]
        assert tokenize_words("don't stop the well-known co-op") == [
            "don't", "stop", "the", "well-known", "co-op",
        ]

    def test_pure_punctuation_vanishes(self):
        assert tokenize_words("--- ... !!") == []

    def test_numbers_are_words(self):
        assert "3.5" in tokenize_words("The rate rose 3.5 percent.")


def syllables(word: str) -> int:
    return flesch_reading_ease(word).syllable_count


class TestSyllables:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ("cat", 1),
            ("apple", 2),
            ("going", 2),
            ("idea", 3),
            ("beautiful", 3),
            ("fire", 1),
            ("every", 2),
            ("area", 3),
            ("science", 2),
            ("immediately", 5),
            ("queue", 1),
            ("strengths", 1),
            ("rhythm", 2),
            ("simple", 2),
        ],
    )
    def test_common_words(self, word, expected):
        assert syllables(word) == expected

    def test_case_insensitive(self):
        assert syllables("HELLO") == syllables("hello")

    @pytest.mark.parametrize("word", ["3.5", "1967", "日本"])
    def test_word_without_latin_letters_counts_one(self, word):
        assert syllables(word) == 1

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_always_at_least_one(self, word):
        assert syllables(word) >= 1


class TestSyllableCache:
    def test_cache_changes_no_count(self, readability_corpus):
        for doc in readability_corpus:
            for token in tokenize_words(doc["text"]):
                lowered = token.lower()
                uncached = _parts_syllables.__wrapped__(lowered)
                assert _parts_syllables(lowered) == uncached, token
                assert _parts_syllables(lowered) == uncached, token  # cache hit
            assert flesch_reading_ease(doc["text"]) == flesch_reading_ease(doc["text"])

    def test_cache_is_bounded(self):
        # unbounded, a long run over open vocabulary would grow without limit
        assert _parts_syllables.cache_info().maxsize is not None


class TestUnscorable:
    @pytest.mark.parametrize("text", ["", "   ", "...", "-- !!"])
    def test_raises_on_wordless_input(self, text):
        with pytest.raises(UnscorableTextError):
            flesch_reading_ease(text)

    def test_is_a_value_error(self):
        # callers that guard on ValueError keep working
        with pytest.raises(ValueError):
            flesch_reading_ease("")


class TestConversational:
    def test_threshold_is_inclusive(self):
        at = TextStats(sentence_count=1, word_count=1, syllable_count=1, flesch_score=60.0)
        below = TextStats(sentence_count=1, word_count=1, syllable_count=1,
                          flesch_score=59.999999)
        assert is_conversational(at)
        assert not is_conversational(below)

    @given(st.floats(min_value=-100, max_value=121.22, allow_nan=False))
    def test_exact_threshold_always_passes(self, threshold):
        stats = TextStats(1, 1, 1, flesch_score=threshold)
        assert is_conversational(stats, threshold=threshold)

    def test_custom_threshold(self):
        stats = TextStats(1, 10, 12, flesch_score=74.9)
        assert is_conversational(stats, threshold=60.0)
        assert not is_conversational(stats, threshold=75.0)


def test_frozen_corpus_agreement(readability_corpus):
    """At least 90% of the 50 frozen documents score within +-2 of the oracle."""
    assert len(readability_corpus) == 50
    within = 0
    misses = []
    for doc in readability_corpus:
        got = flesch_reading_ease(doc["text"]).flesch_score
        if abs(got - doc["oracle_score"]) <= 2.0:
            within += 1
        else:
            misses.append((doc["doc_id"], doc["oracle_score"], got))
    assert within >= 45, f"only {within}/50 within band; misses: {misses}"


def test_frozen_corpus_sentence_and_word_counts(readability_corpus):
    """Counts should track the oracle closely, not just the final score."""
    sentence_hits = sum(
        1 for d in readability_corpus
        if flesch_reading_ease(d["text"]).sentence_count == d["oracle_sentences"]
    )
    word_hits = sum(
        1 for d in readability_corpus
        if flesch_reading_ease(d["text"]).word_count == d["oracle_words"]
    )
    assert sentence_hits >= 45
    assert word_hits >= 45


@given(st.integers(min_value=1, max_value=50))
def test_score_depends_on_ratios_not_length(n):
    # n identical one-word sentences keep both ratios constant
    stats = flesch_reading_ease(" ".join(["Go."] * n))
    assert stats.sentence_count == n
    assert stats.flesch_score == pytest.approx(121.22, abs=0.01)


@given(st.sampled_from([
    "The cat sat on the mat.",
    "Science moves one careful step at a time.",
    "He asked why the train was late again.",
]))
def test_scoring_is_deterministic(text):
    assert flesch_reading_ease(text) == flesch_reading_ease(text)


def next_visible_by_slice(text: str, idx: int) -> str:
    """The reference: the first non-space character of text[idx:]."""
    for ch in text[idx:]:
        if not ch.isspace():
            return ch
    return ""


# Every Unicode space str.isspace accepts, with a zero-width space and
# letters, digits, quotes and terminal marks that are not spaces.
SPACES_AND_MARKS = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
    "\u200baZ9.!?\"'\u2019"
)


@given(st.text(st.one_of(st.sampled_from(SPACES_AND_MARKS), st.characters()), max_size=40))
def test_next_visible_matches_the_slicing_scan(text):
    for idx in range(len(text) + 2):
        assert _next_visible(text, idx) == next_visible_by_slice(text, idx)
