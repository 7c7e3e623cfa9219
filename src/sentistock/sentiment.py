"""Lexicon-based tweet sentiment: tokenize, score, classify, aggregate.

The scoring rule is deliberately small and fully specified here so results
are reproducible anywhere:

  * Tokens are scanned left to right.
  * A token listed as a negator does not score; it queues a x(-0.5)
    modifier (sign flip plus damping) for the next scoring term.
  * A lexicon token whose intensity is not 1.0 does not score; it queues
    its intensity as a multiplier for the next scoring term.
  * A lexicon token with intensity 1.0 scores one clause: its polarity is
    multiplied by every queued modifier in the order encountered, the
    result is clipped to [-1, 1], and the modifier queue is cleared.
    Tokens outside the lexicon leave the queue untouched.
  * The text's polarity is the mean of clause scores, clipped to [-1, 1];
    a text with no scoring clause has polarity exactly 0.

Classification is by sign: positive above zero, negative below, neutral at
exactly zero. No dead-band.

On every text, the URL pattern runs only when the text holds ``://`` or,
lowercased, ``www.``, and the @-mention pattern only when it holds ``@``.
The URL pattern ignores case, but only ``w`` and ``W`` match ``w`` under
it, so the lowercased check skips no URL. Tokenizing an ASCII text then
takes a shorter path with the same result: the text is lowercased once,
and one byte-table pass turns every byte outside ``0-9a-z`` into a space
before a whitespace split. Other text keeps the token regex, because
lowercasing a whole non-ASCII text can split a token: ``"İ".lower()``
appends U+0307, which is not alphanumeric.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date
from typing import BinaryIO, Iterable, Mapping, Sequence

from .errors import PipelineError
from .market_data import Tweet, _utf8_text

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+")
#: For lowercased ASCII text: keeps the bytes 0-9 and a-z and maps every
#: other byte to a space.
_ASCII_TOKEN_TABLE = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 0x20 for b in range(256))


@dataclass(frozen=True)
class LexiconEntry:
    """One scored lexicon term; intensity 1.0 means the term scores itself."""

    term: str
    polarity: float
    intensity: float = 1.0

    def __post_init__(self):
        _check_token(self.term, "term")
        if not -1.0 <= self.polarity <= 1.0:
            raise PipelineError(f"{self.term}: polarity {self.polarity} outside [-1, 1]")
        if not (self.intensity > 0 and math.isfinite(self.intensity)):
            raise PipelineError(f"{self.term}: intensity must be a positive real, got {self.intensity}")


def _check_token(token: str, role: str) -> None:
    """A lexicon term or negator is one token that ``tokenize`` can yield.

    That is a lowercased run of letters and digits. Lowercasing "İ" yields
    "i" plus U+0307, which is not alphanumeric, so that pair counts as a
    letter here: ``tokenize("İstanbul")`` yields "i\u0307stanbul".
    """
    if not token or any(c.isspace() for c in token) or token != token.lower():
        raise PipelineError(f"bad lexicon {role} {token!r} (lowercase, no whitespace)")
    if not token.replace("i\u0307", "i").isalnum():
        raise PipelineError(f"bad lexicon {role} {token!r} (tokenize never yields it: letters and digits only)")


@dataclass(frozen=True)
class Lexicon:
    """Immutable term table plus the set of negator tokens."""

    terms: Mapping[str, LexiconEntry]
    negators: frozenset[str]
    #: What ``score_text`` reads for each lexicon token: (True, polarity)
    #: for a scoring term, (False, multiplier) for a negator (-0.5) or an
    #: intensity term. A word that is both a negator and a term is a negator.
    token_table: dict[str, tuple[bool, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = {}
        for word, entry in self.terms.items():
            scores = entry.intensity == 1.0
            table[word] = (scores, entry.polarity if scores else entry.intensity)
        for word in self.negators:
            table[word] = (False, -0.5)
        object.__setattr__(self, "token_table", table)


@dataclass(frozen=True, slots=True)
class SentimentScore:
    """One tweet's score; slotted, since a corpus holds one per tweet."""

    polarity: float

    @property
    def label(self) -> str:
        """The class by sign: positive, negative, or neutral at exactly 0."""
        if self.polarity > 0:
            return "positive"
        if self.polarity < 0:
            return "negative"
        return "neutral"


@dataclass(frozen=True)
class DailySentiment:
    """Per-calendar-day class percentages over all tweets of that day."""

    date: date
    pos_pct: float
    neg_pct: float
    neu_pct: float
    tweet_count: int

    def __post_init__(self):
        if self.tweet_count < 0:
            raise ValueError("tweet_count must be non-negative")
        if self.tweet_count == 0:
            if (self.pos_pct, self.neg_pct, self.neu_pct) != (0.0, 0.0, 100.0):
                raise ValueError("zero-tweet day must be (0, 0, 100)")
        elif abs(self.pos_pct + self.neg_pct + self.neu_pct - 100.0) > 1e-9:
            raise ValueError("class percentages must sum to 100")


def tokenize(text: str) -> list[str]:
    """Lowercased unicode tokens with URLs and @-mentions stripped.

    Splitting happens on every non-alphanumeric boundary, so a hashtag
    loses its '#' but keeps its body.
    """
    if text.isascii():
        text = text.lower()
        if "://" in text or "www." in text:
            text = _URL_RE.sub(" ", text)
        if "@" in text:
            text = _MENTION_RE.sub(" ", text)
        return text.encode("ascii").translate(_ASCII_TOKEN_TABLE).decode("ascii").split()
    if "://" in text or "www." in text.lower():
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    return [t.lower() for t in _TOKEN_RE.findall(text)]


_NEUTRAL = SentimentScore(0.0)


def score_text(tokens: Sequence[str], lexicon: Lexicon) -> SentimentScore:
    """Apply the module's scoring rule (see module docstring) to tokens."""
    clauses: list[float] = []
    pending: list[float] = []
    # Tokens outside the lexicon map to None, which the filter drops.
    # Each clip is inline, with the results of max(-1.0, min(1.0, x)), which
    # differ only on NaN. A polarity is finite and a multiplier finite and
    # never 0, so a product can overflow to an infinity but never be NaN.
    for scores, value in filter(None, map(lexicon.token_table.get, tokens)):
        if scores:
            for mod in pending:
                value = value * mod
            clauses.append(1.0 if value >= 1.0 else -1.0 if value <= -1.0 else value)
            pending = []
        else:
            pending.append(value)
    if not clauses:
        return _NEUTRAL
    mean = sum(clauses) / len(clauses)
    return SentimentScore(1.0 if mean >= 1.0 else -1.0 if mean <= -1.0 else mean)


def score_corpus(
    buckets: Mapping[date, Sequence[Tweet]],
    lexicon: Lexicon,
) -> dict[date, list[SentimentScore]]:
    """Score every bucketed tweet; keys and bucket order are preserved."""
    return {
        day: [score_text(tokenize(t.text), lexicon) for t in tweets]
        for day, tweets in buckets.items()
    }


def aggregate_daily(scored: Mapping[date, Sequence[SentimentScore]]) -> list[DailySentiment]:
    """Per-day class percentages, ascending by date.

    Days with no tweets come out as (0, 0, 100) with count 0 so every
    trading day keeps defined sentiment features.
    """
    out = []
    for day in sorted(scored):
        scores = scored[day]
        n = len(scores)
        if n == 0:
            out.append(DailySentiment(day, 0.0, 0.0, 100.0, 0))
            continue
        labels = [s.label for s in scores]
        pos = labels.count("positive")
        neg = labels.count("negative")
        neu = n - pos - neg
        out.append(
            DailySentiment(day, 100.0 * pos / n, 100.0 * neg / n, 100.0 * neu / n, n)
        )
    return out


def load_lexicon(stream: BinaryIO) -> Lexicon:
    """Load and validate a lexicon TSV.

    Columns: term, polarity, intensity, flag; flag is 'term' or 'negator'.
    A header line repeating those names is allowed and skipped. Terms are
    lowercased before duplicate detection, and a word may not appear as
    both a term and a negator. Every error message starts with its line.
    """
    with _utf8_text(stream, "lexicon TSV") as text:
        lines = text.readlines()
    terms: dict[str, LexiconEntry] = {}
    negators: set[str] = set()
    first = True
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = [c.strip() for c in line.split("\t")]
        if first and cols == ["term", "polarity", "intensity", "flag"]:
            first = False
            continue
        first = False
        try:
            if len(cols) != 4:
                raise PipelineError(f"expected 4 tab-separated columns, got {len(cols)}")
            word, pol_s, inten_s, flag = cols
            try:
                polarity = float(pol_s)
                intensity = float(inten_s)
            except ValueError as exc:
                raise PipelineError("non-numeric polarity/intensity") from exc
            word = word.lower()
            if word in terms or word in negators:
                raise PipelineError(f"duplicate term {word!r}")
            if flag == "negator":
                _check_token(word, "negator")
                negators.add(word)
            elif flag == "term":
                terms[word] = LexiconEntry(term=word, polarity=polarity, intensity=intensity)
            else:
                raise PipelineError(f"flag must be 'term' or 'negator', got {flag!r}")
        except PipelineError as exc:
            raise PipelineError(f"line {lineno}: {exc}") from exc
    return Lexicon(terms=terms, negators=frozenset(negators))


def daily_sentiment_csv(records: Iterable[DailySentiment]) -> str:
    """Render daily records as the CSV interface (stable column order)."""
    lines = ["date,pos_pct,neg_pct,neu_pct,tweet_count"]
    for rec in records:
        lines.append(
            f"{rec.date.isoformat()},{rec.pos_pct!r},{rec.neg_pct!r},"
            f"{rec.neu_pct!r},{rec.tweet_count}"
        )
    return "\n".join(lines) + "\n"
