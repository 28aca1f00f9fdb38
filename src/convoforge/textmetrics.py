"""Text statistics used as the pipeline gate and the evaluation metric.

Everything in here is pure and deterministic: sentence segmentation, word
tokenization, heuristic English syllable counting, and the Flesch
reading-ease score computed from those counts. Scores are returned raw
(unclamped, unrounded) because downstream threshold comparisons depend on
exact boundary behavior.

Syllable counts are memoised per lowercased token in a bounded LRU cache:
real text repeats a small vocabulary, and each uncached count runs a
dozen-odd regexes. The counting function is pure, so the cache changes no
count and every function here stays pure and deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "TextStats",
    "UnscorableTextError",
    "segment_sentences",
    "tokenize_words",
    "count_syllables",
    "flesch_reading_ease",
    "is_conversational",
    "CONVERSATIONAL_THRESHOLD",
]


class UnscorableTextError(ValueError):
    """Raised when a text contains no sentences or no words to score."""


@dataclass(frozen=True)
class TextStats:
    """Counts and score for one passage of text."""

    sentence_count: int
    word_count: int
    syllable_count: int
    flesch_score: float


# ---------------------------------------------------------------------------
# Sentence segmentation
# ---------------------------------------------------------------------------

# Titles, ranks, and Latinisms whose trailing period does not end a sentence.
_ABBREVIATIONS = frozenset(
    """
    mr mrs ms dr prof rev fr sr jr st ave blvd rd hon pres supt
    gen col capt sgt lt maj cmdr adm gov sen rep amb sec treas
    vs etc al eg ie cf ca approx est dept univ assn inc ltd corp co
    bros mt ft pt
    """.split()
)

# Abbreviations only when a number follows ("No. 7", "p. 12", "Fig. 3").
_NUMERIC_ABBREVIATIONS = frozenset("no fig figs vol p pp pg sec ch art op".split())

# A run of terminal punctuation plus any closing quotes/brackets riding on it.
_TERMINAL_RE = re.compile(r"[.!?]+[\"'’”)\]]*")

_OPENING_QUOTES = "\"'‘“(["


def _preceding_token(text: str, idx: int) -> str:
    """Word characters immediately before position ``idx``."""
    j = idx
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "'’-"):
        j -= 1
    return text[j:idx]


def _next_visible(text: str, idx: int) -> str:
    for ch in text[idx:]:
        if not ch.isspace():
            return ch
    return ""


def _is_boundary(text: str, start: int, end: int, run: str) -> bool:
    # Must be followed by whitespace or end-of-text. This also keeps
    # decimal numbers ("3.14") and dotted hosts ("example.com") intact.
    if end < len(text) and not text[end].isspace():
        return False
    if "!" in run or "?" in run:
        return True
    nxt = _next_visible(text, end)
    dots = run.count(".")
    if dots >= 2:
        # Ellipsis ends a sentence only when what follows looks like a
        # sentence start.
        return nxt == "" or nxt.isupper() or nxt.isdigit() or nxt in _OPENING_QUOTES
    token = _preceding_token(text, start).rstrip("'’").lower()
    if len(token) == 1 and token.isalpha():
        return False  # initials: "Claiborne H. Kinnard"
    if token in _ABBREVIATIONS:
        return False
    if token in _NUMERIC_ABBREVIATIONS and nxt.isdigit():
        return False
    if nxt.islower():
        return False  # sentences do not start lowercase; assume continuation
    return True


def segment_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation.

    Boundaries are runs of ``.``, ``!``, ``?`` followed by whitespace or
    end-of-text, with guards for abbreviations, single-letter initials,
    decimal numbers, and lowercase continuations. Trailing text without
    terminal punctuation is returned as a final sentence, so no
    non-whitespace content is ever dropped.
    """
    sentences: list[str] = []
    start = 0
    for m in _TERMINAL_RE.finditer(text):
        if _is_boundary(text, m.start(), m.end(), m.group()):
            piece = text[start : m.end()].strip()
            if piece:
                sentences.append(piece)
            start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# ---------------------------------------------------------------------------
# Word tokenization
# ---------------------------------------------------------------------------


def tokenize_words(text: str) -> list[str]:
    """Split on whitespace and strip surrounding punctuation.

    Internal apostrophes and hyphens are kept, so "don't" and
    "well-known" each count as one word. Tokens that are pure
    punctuation disappear.
    """
    words: list[str] = []
    for raw in text.split():
        i, j = 0, len(raw)
        while i < j and not raw[i].isalnum():
            i += 1
        while j > i and not raw[j - 1].isalnum():
            j -= 1
        if i < j:
            words.append(raw[i:j])
    return words


# ---------------------------------------------------------------------------
# Syllable counting
# ---------------------------------------------------------------------------

_VOWEL_RUNS_RE = re.compile(r"[aeiouy]+")

# Silent endings: -e, -es, -ed after a consonant ("like", "closed", "makes").
_SILENT_ENDING_RE = re.compile(r"[^aeiouy]e[sd]?$")

# Silent stem-final e buried under a suffix: lately, careful, ninety.
_SILENT_E_SUFFIX_RE = re.compile(r"[^aeiouy]e(?:ly|ful|fully|ness|less|ty)$")

# Patterns where the run count comes up one short. The y-glide patterns
# exclude silent "-ye(s|d)" endings (played, dyes) while keeping flying,
# layer, mayor.
_EXTRA_SYLLABLE_RES = [
    re.compile(r"[^aeiouylrw][lr]e[sd]?$"),  # consonant-le: table, title, acres
    re.compile(r"[td]ed$"),  # pronounced -ed: decided, created
    re.compile(r"(?:[csgxz]|[cs]h)es$"),  # pronounced -es: boxes, riches
    re.compile(r"[^aeiou]y(?:[aiou]|e(?![sd]?$))"),  # flying, anyone; not "dyed"
    re.compile(r"[aeiou]y(?:[aiou]|e(?![sd]?$))"),  # layer, beyond; not "played"
    re.compile(r"(?<![ct])ia(?!n$|ns$|nt$|nts$)"),  # piano, media; not "asian"
    re.compile(r"io$"),  # radio, ratio
    re.compile(r"eo(?!ple$|ples$|n$|ns$|ne$|u)"),  # video, theory; not "people"
    re.compile(r"[^gqu]ua"),  # situation, actual
    re.compile(r"(?<![cts])ien(?:t|ts|ce|ces|ced)$"),  # client, audience
    re.compile(r"(?<![cgtx])ious(?:ly)?$"),  # various, seriously; not "precious"
    re.compile(r"ism$"),  # prism, organism
    re.compile(r"creat(?!ure)"),  # create, creation; not "creature"
    re.compile(r"[aeiouy][^aeiouy]+ie(?:r|rs|st)$"),  # easier, happiest; not "tier"
]

# Common words the rules above still miss: vowel hiatus the run counter
# merges (idea, violin), silent vowels it keeps (league, somebody), and a
# few glide/stress oddballs.
_IRREGULAR_SYLLABLES = {
    "business": 2,
    "businesses": 3,
    "every": 2,
    "everything": 3,
    "everyone": 3,
    "everybody": 4,
    "everywhere": 3,
    "everyday": 3,
    "somebody": 3,
    "science": 2,
    "sciences": 3,
    "scientist": 3,
    "scientists": 3,
    "scientific": 4,
    "quiet": 2,
    "quietly": 3,
    "diet": 2,
    "society": 4,
    "variety": 4,
    "anxiety": 4,
    "poem": 2,
    "poems": 2,
    "poet": 2,
    "poetry": 3,
    "poetic": 3,
    "being": 2,
    "beings": 2,
    "doing": 2,
    "going": 2,
    "seeing": 2,
    "agreeing": 3,
    "idea": 3,
    "ideas": 3,
    "real": 2,
    "really": 3,
    "reality": 4,
    "area": 3,
    "areas": 3,
    "evening": 2,
    "familiar": 3,
    "soldier": 2,
    "soldiers": 2,
    "rhythm": 2,
    "algorithm": 4,
    "algorithms": 4,
    "giant": 2,
    "giants": 2,
    "variant": 3,
    "variants": 3,
    "resilient": 3,
    "resilience": 3,
    "historian": 4,
    "historians": 4,
    "movement": 2,
    "movements": 2,
    "statement": 2,
    "statements": 2,
    "management": 3,
    "announcement": 3,
    "arrangement": 3,
    "placement": 2,
    "replacement": 3,
    "replacements": 3,
    "requirement": 3,
    "requirements": 3,
    "achievement": 3,
    "improvement": 3,
    "improvements": 3,
    "excitement": 3,
    "retirement": 3,
    "therefore": 2,
    "homework": 2,
    "notebook": 2,
    "notebooks": 2,
    "timeline": 2,
    "timelines": 2,
    "warehouse": 2,
    "warehouses": 3,
    "loneliness": 3,
    "crooked": 2,
    "wicked": 2,
    "naked": 2,
    "rugged": 2,
    "ragged": 2,
    "jagged": 2,
    "theater": 3,
    "theatre": 3,
    "chaos": 2,
    "react": 2,
    "reaction": 3,
    "museum": 3,
    "influence": 3,
    "ruin": 2,
    "ruins": 2,
    "ruined": 2,
    "recipe": 3,
    "recipes": 3,
    "violin": 3,
    "violins": 3,
    "biology": 4,
    "interior": 4,
    "priority": 4,
    "priorities": 4,
    "intuition": 4,
    "ambiguity": 5,
    "negotiation": 5,
    "coordination": 5,
    "coordinator": 5,
    "coordinators": 5,
    "archaeology": 5,
    "archaeologist": 5,
    "archaeologists": 5,
    "league": 1,
    "tongue": 1,
    "colleague": 2,
    "colleagues": 2,
    "antique": 2,
    "antiques": 2,
    "unique": 2,
    "technique": 2,
}


def _vowel_run_count(word: str) -> int:
    """Heuristic syllable count for a lowercase alphabetic word."""
    irregular = _IRREGULAR_SYLLABLES.get(word)
    if irregular is not None:
        return irregular
    count = len(_VOWEL_RUNS_RE.findall(word))
    if _SILENT_ENDING_RE.search(word):
        count -= 1
    if _SILENT_E_SUFFIX_RE.search(word):
        count -= 1
    for pattern in _EXTRA_SYLLABLE_RES:
        count += len(pattern.findall(word))
    return max(1, count)


# Distinct lowercased tokens whose syllable counts are kept. Bounded so a
# long run over open vocabulary cannot grow memory without limit.
_SYLLABLE_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_SYLLABLE_CACHE_SIZE)
def _parts_syllables(word: str) -> int:
    """Sum per hyphen-separated part so "well-known" counts both halves."""
    total = 0
    for part in word.split("-"):
        letters = "".join(ch for ch in part if "a" <= ch <= "z")
        if letters:
            total += _vowel_run_count(letters)
    return max(1, total)


def count_syllables(word: str) -> int:
    """Count syllables in one word; case-insensitive, always >= 1.

    Raises ValueError when the token has no alphabetic characters
    (numbers, bare punctuation), naming the offending token.
    """
    lowered = word.lower()
    if not any(ch.isalpha() for ch in lowered):
        raise ValueError(f"cannot count syllables of non-alphabetic token {word!r}")
    if not any("a" <= ch <= "z" for ch in lowered):
        return 1  # non-Latin script: degrade to one syllable, never crash
    return _parts_syllables(lowered)


# ---------------------------------------------------------------------------
# Flesch reading ease
# ---------------------------------------------------------------------------


def flesch_reading_ease(text: str) -> TextStats:
    """Score a passage: 206.835 - 1.015*(words/sentences) - 84.6*(syllables/words).

    Higher is easier. The score is not clamped; "Go." scores 121.22 and
    dense prose can go negative. Raises UnscorableTextError when the text
    has no sentences or no words.
    """
    sentences = segment_sentences(text)
    words = tokenize_words(text)
    if not sentences or not words:
        raise UnscorableTextError(
            "unscorable text: needs at least one sentence and one word"
        )
    syllables = sum(_parts_syllables(w.lower()) for w in words)
    score = (
        206.835
        - 1.015 * (len(words) / len(sentences))
        - 84.6 * (syllables / len(words))
    )
    return TextStats(
        sentence_count=len(sentences),
        word_count=len(words),
        syllable_count=syllables,
        flesch_score=score,
    )


# Default conversational cutoff for eval; a score exactly at it passes.
CONVERSATIONAL_THRESHOLD = 60.0


def is_conversational(stats: TextStats, threshold: float = CONVERSATIONAL_THRESHOLD) -> bool:
    """True when the score meets or exceeds the threshold (inclusive)."""
    return stats.flesch_score >= threshold
