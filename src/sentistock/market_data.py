"""Ingestion of daily OHLCV bars and raw tweet corpora.

Parses exchange CSV exports and JSONL tweet dumps into validated, immutable
records and aligns tweets onto the trading calendar. All transformations
here are pure; parsed values never change after construction.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyInput, PipelineError

PRICE_FIELDS = ("open", "high", "low", "close", "adj_close")
NUMERIC_FIELDS = PRICE_FIELDS + ("volume",)
OHLCV_FIELDS = ("date",) + NUMERIC_FIELDS

#: Column names used when the caller does not supply a schema map.
DEFAULT_SCHEMA: dict[str, str] = {
    "date": "Date",
    "open": "Open",
    "high": "High",
    "low": "Low",
    "close": "Close",
    "adj_close": "Adj Close",
    "volume": "Volume",
}


@dataclass(frozen=True)
class OhlcvBar:
    """One trading day's prices and volume; missing cells are None."""

    date: date
    open: float | None = None
    high: float | None = None
    low: float | None = None
    close: float | None = None
    adj_close: float | None = None
    volume: float | None = None

    def __post_init__(self):
        if not isinstance(self.date, date) or isinstance(self.date, datetime):
            raise TypeError(f"date must be a datetime.date, got {type(self.date).__name__}")
        if self.volume is not None and self.volume < 0:
            raise PipelineError(f"{self.date}: negative volume {self.volume}")
        for name in NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise PipelineError(f"{self.date}: non-finite {name} {value!r}")

    def violates_price_box(self) -> bool:
        """True when low/high do not bracket open/close (all four present)."""
        o, h, l, c = self.open, self.high, self.low, self.close
        if None in (o, h, l, c):
            return False
        return l > min(o, c) or h < max(o, c)


@dataclass(frozen=True, slots=True)
class Tweet:
    """A single tweet; the timestamp retains whatever offset it was posted with.

    ``@dataclass`` keeps this hand-written ``__init__``, the one place that
    refuses a blank text; ``dataclasses.replace`` goes through it too.
    Slotted, without a ``__dict__``, since a corpus holds one per tweet.
    """

    timestamp: datetime
    text: str
    id: str

    def __init__(self, timestamp: datetime, text: str, id: str):
        if not text.strip():
            raise ValueError("tweet text is empty after trimming")
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "id", id)


@dataclass(frozen=True)
class BarSeries:
    """Bars for one symbol, strictly ascending by date with no duplicates."""

    symbol: str
    bars: tuple[OhlcvBar, ...]

    def __post_init__(self):
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date == prev.date:
                raise PipelineError(f"duplicate date {cur.date} in series {self.symbol!r}")
            if cur.date < prev.date:
                raise ValueError(f"bars out of order at {cur.date}")

    def dates(self) -> tuple[date, ...]:
        return tuple(b.date for b in self.bars)

    def __len__(self) -> int:
        return len(self.bars)


@contextmanager
def _utf8_text(stream: BinaryIO, kind: str, newline: str | None = None) -> Iterator[io.TextIOWrapper]:
    """Read the caller's binary ``stream`` as UTF-8 text, leaving it open.

    One byte-order mark at the very start of the stream, which spreadsheet
    programs write when they save "CSV UTF-8", is dropped. Bytes that are
    not UTF-8 raise :class:`PipelineError` naming ``kind``.
    """
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline=newline)
    try:
        yield text
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.start + 1].hex()
        raise PipelineError(f"{kind} is not UTF-8 text: byte 0x{bad} ({exc.reason})") from exc
    finally:
        # Unwrap, or collecting the wrapper would close the caller's stream.
        text.detach()


def parse_ohlcv_csv(
    stream: BinaryIO,
    schema_map: Mapping[str, str] | None = None,
    symbol: str = "",
) -> BarSeries:
    """Parse a UTF-8 OHLCV CSV export into a date-sorted BarSeries.

    `schema_map` maps each bar field (date, open, high, low, close,
    adj_close, volume) to its column name in the file. Unparseable numeric
    cells become missing values rather than errors, so the row count is
    preserved. Dates may be ISO-8601 or DD-MM-YYYY; the format is detected
    once per file, never per row.
    """
    schema = dict(DEFAULT_SCHEMA)
    if schema_map:
        schema.update(schema_map)

    with _utf8_text(stream, "OHLCV CSV", newline="") as text:
        reader = csv.DictReader(text)
        try:
            if reader.fieldnames is None:
                raise EmptyInput("CSV stream has no header row")
            header = [h.strip() for h in reader.fieldnames]
            for field in OHLCV_FIELDS:
                if schema[field] not in header:
                    raise PipelineError(f"column {schema[field]!r} (for {field}) not in header {header}")

            rows = [{k.strip(): (v if v is not None else "") for k, v in raw.items() if k is not None}
                    for raw in reader]
        except csv.Error as exc:
            # reader.line_num counts rows read; the inner reader's counts lines.
            raise PipelineError(f"OHLCV CSV line {reader.reader.line_num}: {exc}") from exc
    if not rows:
        raise EmptyInput("CSV contains a header but no data rows")

    dates = _parse_date_column([row.get(schema["date"], "") for row in rows])

    columns = [schema[field] for field in NUMERIC_FIELDS]
    bars = []
    for row, d in zip(rows, dates):
        # Positional, in field order: NUMERIC_FIELDS follows OhlcvBar's fields.
        bar = OhlcvBar(d, *[_parse_numeric_cell(row.get(column, "")) for column in columns])
        if bar.violates_price_box():
            raise PipelineError(
                f"{d}: low/high do not bracket open/close "
                f"(o={bar.open} h={bar.high} l={bar.low} c={bar.close})"
            )
        bars.append(bar)

    bars.sort(key=lambda b: b.date)
    return BarSeries(symbol=symbol, bars=tuple(bars))


def _parse_numeric_cell(cell: str) -> float | None:
    # Exchange exports use thousands separators; strip those before parsing.
    cleaned = cell.strip().replace(",", "")
    if not cleaned:
        return None
    try:
        return float(cleaned)
    except ValueError:
        return None


def _parse_date_column(raw: Sequence[str]) -> list[date]:
    """Parse every date cell with one format chosen for the whole file.

    When neither format reads every cell, the error names the cell where
    the format that read the most rows stopped.
    """
    stopped_at = 0
    for parser in (_parse_iso_date, _parse_ddmmyyyy):
        parsed = []
        for cell in raw:
            d = parser(cell.strip())
            if d is None:
                break
            parsed.append(d)
        else:
            return parsed
        stopped_at = max(stopped_at, len(parsed))
    raise PipelineError(f"date cell {raw[stopped_at]!r} is neither ISO-8601 nor DD-MM-YYYY")


def _parse_iso_date(cell: str):
    try:
        return date.fromisoformat(cell)
    except ValueError:
        return None


#: The pattern ``datetime.strptime`` builds for ``"%d-%m-%Y"``. Matched
#: whole, with the date built from its groups, it accepts exactly the cells
#: strptime accepts, without strptime's per-call lookups (2,000 cells: about
#: 17 ms through strptime, 4 ms through this pattern).
_DDMMYYYY = re.compile(r"(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])-(1[0-2]|0[1-9]|[1-9])-(\d\d\d\d)")


def _parse_ddmmyyyy(cell: str):
    match = _DDMMYYYY.fullmatch(cell)
    if match is None:
        return None
    day, month, year = match.groups()
    try:
        return date(int(year), int(month), int(day))
    except ValueError:
        return None


def parse_tweets_jsonl(stream: BinaryIO) -> tuple[list[Tweet], int]:
    """Parse a JSONL tweet corpus (one object per line).

    Returns (tweets, skipped_count). Lines that are not one JSON object,
    lack a timestamp/text/id field, carry a timestamp or text that is not a
    string, an id that is neither a string nor an integer, or an empty text
    are skipped and counted; blank lines are ignored silently. Input order
    is preserved.
    """
    tweets: list[Tweet] = []
    skipped = 0
    with _utf8_text(stream, "tweet JSONL") as text:
        for line in text:
            line = line.strip()
            if not line:
                continue
            tweet = _parse_tweet_line(line)
            if tweet is None:
                skipped += 1
            else:
                tweets.append(tweet)
    if not tweets:
        raise EmptyInput(f"no valid tweet lines found ({skipped} skipped)")
    return tweets, skipped


#: The C scanner behind ``JSONDecoder.raw_decode``, called without that
#: method's Python frame: it returns ``(value, end)`` or raises
#: ``StopIteration`` where ``raw_decode`` would raise "Expecting value".
_scan_once = json.JSONDecoder().scan_once


def _parse_tweet_line(line: str) -> Tweet | None:
    """The tweet on one stripped, non-blank line, or None to skip the line.

    Decodes with the C scanner that ``raw_decode`` wraps, instead of
    ``json.loads``, whose wrapper scans for leading and trailing whitespace
    with a regex on every call. The line is already stripped of all
    whitespace, JSON's included, so requiring the value to end at the end
    of the line accepts and rejects exactly what ``json.loads`` does: a
    line that starts with a BOM (past the stream's first, which the reader
    drops) or has trailing data is skipped, ``NaN`` and ``Infinity``
    decode as floats. The decoder yields only exact ``dict``, ``str`` and
    ``int`` objects, so the checks compare types with ``is``; a ``bool``
    id fails ``is int`` on its own. The tweet is built by a positional
    ``Tweet(...)`` call, whose blank-text refusal skips the line.
    """
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):  # also a number too long for int; nested too deep
        return None
    if end != len(line) or type(obj) is not dict:
        return None
    try:
        ts, text, tweet_id = obj["timestamp"], obj["text"], obj["id"]
    except KeyError:
        return None
    if type(ts) is not str or type(text) is not str:
        return None
    if type(tweet_id) is not str and type(tweet_id) is not int:
        return None
    try:
        return Tweet(_parse_rfc3339(ts), text, str(tweet_id))
    except ValueError:
        return None


#: The timestamp grammar: ``YYYY-MM-DD``, optionally followed by ``T``,
#: ``t`` or a space, ``HH[:MM[:SS[.digits]]]`` and a ``Z``, ``z`` or
#: ``±HH:MM[:SS[.ffffff]]`` offset. ``fromisoformat`` reads more: comma
#: fractions, basic-format times and offsets (``T1000Z``, ``+0500``),
#: hours-only offsets, fractions on the hours or minutes, ISO week dates
#: and a stray character after the hours, minutes or seconds. The
#: separator matters too: ``fromisoformat`` takes any character between
#: the date and the time, so ``2024-01-05+05:00`` would read as 05:00 on a
#: naive clock.
_TIMESTAMP = re.compile(
    r"\d{4}-\d\d-\d\d"
    r"(?:[Tt ]\d\d(?::\d\d(?::\d\d(?:\.\d+)?)?)?"
    r"(?:[Zz]|[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?",
    re.ASCII,
)


def _parse_rfc3339(value: str) -> datetime:
    """The datetime of a timestamp in ``_TIMESTAMP``'s grammar.

    ``fromisoformat`` reads a trailing ``Z`` and a seconds fraction of any
    length (cut to 6 digits), but not a trailing ``z``, which is read as
    ``+00:00``.
    """
    if _TIMESTAMP.fullmatch(value) is None:
        raise ValueError(f"not a timestamp: {value!r}")
    if value.endswith("z"):
        value = value[:-1] + "+00:00"
    return datetime.fromisoformat(value)


def align_to_trading_days(
    tweets: Iterable[Tweet],
    trading_dates: Sequence[date],
) -> tuple[dict[date, list[Tweet]], int]:
    """Bucket tweets onto the first trading date at or after their own date.

    Weekend and holiday tweets therefore roll forward to the next session.
    Tweets dated after the final trading date are dropped and counted.
    Every trading date appears as a key, empty list when nothing landed
    there, so downstream daily aggregation stays defined on every session.

    Returns (buckets, dropped_count).
    """
    calendar = list(trading_dates)
    if not calendar:
        raise PipelineError("trading calendar is empty")
    for prev, cur in zip(calendar, calendar[1:]):
        if cur <= prev:
            raise ValueError(f"trading dates not strictly ascending at {cur}")

    buckets: dict[date, list[Tweet]] = {d: [] for d in calendar}
    dropped = 0
    for tweet in tweets:
        day = tweet.timestamp.date()
        idx = bisect_left(calendar, day)
        if idx == len(calendar):
            dropped += 1
        else:
            buckets[calendar[idx]].append(tweet)
    return buckets, dropped


# Serialization of validated intermediates, written by the ingest command.

def bars_to_json(series: BarSeries) -> str:
    doc = {
        "version": 1,
        "symbol": series.symbol,
        "bars": [
            {"date": b.date.isoformat(), **{name: getattr(b, name) for name in NUMERIC_FIELDS}}
            for b in series.bars
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def tweet_to_json_line(tweet: Tweet) -> str:
    """``json.dumps`` of the tweet's id, text and timestamp with sorted keys.

    Writes the three keys in sorted order around the C string escaper that
    ``json.dumps`` itself uses (``ensure_ascii``, default separators), so
    the bytes are the same without building a ``JSONEncoder`` per tweet.
    """
    return (
        f'{{"id": {encode_basestring_ascii(tweet.id)}, "text": {encode_basestring_ascii(tweet.text)}, '
        f'"timestamp": {encode_basestring_ascii(tweet.timestamp.isoformat())}}}'
    )
