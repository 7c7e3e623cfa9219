import io
import json
from dataclasses import asdict
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentistock.errors import EmptyInput, PipelineError
from sentistock.market_data import (
    BarSeries,
    OhlcvBar,
    Tweet,
    align_to_trading_days,
    bars_to_json,
    _parse_ddmmyyyy,
    _parse_tweet_line,
    parse_ohlcv_csv,
    parse_tweets_jsonl,
    tweet_to_json_line,
)

from fixtures import make_coupled_fixture, roundtrip_series


def csv_stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"


class TestParseOhlcvCsv:
    def test_three_rows_sorted_ascending(self):
        body = (
            "2020-01-03,11,12,10,11.5,11.5,300\n"
            "2020-01-01,10,11,9,10.5,10.5,100\n"
            "2020-01-02,10.5,11.5,9.5,11,11,200\n"
        )
        stream = csv_stream(HEADER + body)
        series = parse_ohlcv_csv(stream)
        assert stream.closed is False  # the caller's stream stays the caller's
        assert len(series) == 3
        assert series.dates() == (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
        assert series.bars[0].open == 10.0
        assert series.bars[2].volume == 300.0

    def test_empty_cell_becomes_missing(self):
        body = "2020-01-01,,11,9,10.5,10.5,100\n"
        series = parse_ohlcv_csv(csv_stream(HEADER + body))
        bar = series.bars[0]
        assert bar.open is None
        assert bar.high == 11.0 and bar.close == 10.5

    def test_unparseable_cell_becomes_missing(self):
        body = "2020-01-01,n/a,11,9,10.5,10.5,100\n"
        bar = parse_ohlcv_csv(csv_stream(HEADER + body)).bars[0]
        assert bar.open is None

    def test_thousands_separators(self):
        text = (
            'Date,Open,High,Low,Close,Adj Close,Volume\n'
            '2020-01-01,"1,250.5","1,260","1,240","1,255","1,255","10,000"\n'
        )
        bar = parse_ohlcv_csv(csv_stream(text)).bars[0]
        assert bar.open == 1250.5
        assert bar.volume == 10000.0

    def test_duplicate_date_rejected(self):
        body = "2020-01-02,10,11,9,10.5,10.5,100\n2020-01-02,10,11,9,10.5,10.5,100\n"
        with pytest.raises(PipelineError, match="duplicate date 2020-01-02"):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_missing_mapped_column(self):
        text = "Date,Open,High,Low,Close,Volume\n2020-01-01,10,11,9,10.5,100\n"
        with pytest.raises(PipelineError, match=r"column 'Adj Close' \(for adj_close\) not in header"):
            parse_ohlcv_csv(csv_stream(text))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_ohlcv_csv(csv_stream(HEADER))
        with pytest.raises(EmptyInput):
            parse_ohlcv_csv(csv_stream(""))

    def test_schema_map_renames_columns(self):
        text = (
            "Trade Date,Open Price,High Price,Low Price,Close Price,Adj Price,Traded Qty\n"
            "2020-01-01,10,11,9,10.5,10.4,100\n"
        )
        schema = {
            "date": "Trade Date", "open": "Open Price", "high": "High Price",
            "low": "Low Price", "close": "Close Price", "adj_close": "Adj Price",
            "volume": "Traded Qty",
        }
        series = parse_ohlcv_csv(csv_stream(text), schema_map=schema)
        assert series.bars[0].adj_close == 10.4

    def test_ddmmyyyy_autodetected_per_file(self):
        body = "02-01-2020,10,11,9,10.5,10.5,100\n03-01-2020,10,11,9,10.5,10.5,100\n"
        series = parse_ohlcv_csv(csv_stream(HEADER + body))
        assert series.dates() == (date(2020, 1, 2), date(2020, 1, 3))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        day=st.dates().map(lambda d: d.strftime("%d-%m-%Y")),
        cell=st.text(alphabet=st.sampled_from("0123456789- x\u0663\uff11"), max_size=11),
        cut=st.integers(0, 2),
    )
    def test_ddmmyyyy_equals_strptime(self, day, cell, cut):
        # The cell rule as datetime.strptime applied it before the module
        # matched strptime's own pattern itself.
        def reference(text):
            try:
                return datetime.strptime(text, "%d-%m-%Y").date()
            except ValueError:
                return None

        unpadded = day.lstrip("0").replace("-0", "-", 1)
        for text in (day, unpadded, " " + unpadded, day[cut:], day + "0", cell):
            assert _parse_ddmmyyyy(text) == reference(text)

    def test_unparseable_date(self):
        body = "Jan 1 2020,10,11,9,10.5,10.5,100\n"
        with pytest.raises(PipelineError, match="is neither ISO-8601 nor DD-MM-YYYY"):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_price_box_violation(self):
        body = "2020-01-01,10,9.5,9,10.5,10.5,100\n"  # high below open
        with pytest.raises(PipelineError, match="low/high do not bracket open/close"):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_negative_volume(self):
        body = "2020-01-01,10,11,9,10.5,10.5,-5\n"
        with pytest.raises(PipelineError, match="negative volume"):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_row_count_preserved(self):
        series, _, _ = make_coupled_fixture(n_days=40)
        again = roundtrip_series(series)
        assert len(again) == len(series)


def series_from_bars_document(text: str) -> BarSeries:
    """Rebuild a series from the document ``bars_to_json`` writes."""
    doc = json.loads(text)
    assert doc["version"] == 1
    bars = tuple(
        OhlcvBar(**{**item, "date": date.fromisoformat(item["date"])}) for item in doc["bars"]
    )
    return BarSeries(symbol=doc["symbol"], bars=bars)


class TestBarSerialization:
    def test_json_roundtrip_identity(self):
        series, _, _ = make_coupled_fixture(n_days=30)
        assert series_from_bars_document(bars_to_json(series)) == series

    def test_roundtrip_with_missing_cells(self):
        bars = (
            OhlcvBar(date=date(2020, 1, 1), open=None, high=11.0, low=9.0, close=10.0,
                     adj_close=None, volume=None),
            OhlcvBar(date=date(2020, 1, 2), open=10.0, high=11.0, low=9.0, close=10.5,
                     adj_close=10.5, volume=120.0),
        )
        series = BarSeries(symbol="X", bars=bars)
        doc = json.loads(bars_to_json(series))
        assert doc["bars"][0]["open"] is None
        assert doc["bars"][0]["adj_close"] is None and doc["bars"][0]["volume"] is None
        assert series_from_bars_document(bars_to_json(series)) == series

    def test_csv_roundtrip_identity(self):
        series, _, _ = make_coupled_fixture(n_days=30)
        assert roundtrip_series(series) == series

    def test_equals_asdict_reference_with_missing_cells(self):
        # The document as written from dataclasses.asdict before bars_to_json
        # read the fields directly.
        def reference(series: BarSeries) -> str:
            doc = {
                "version": 1,
                "symbol": series.symbol,
                "bars": [
                    {**{k: v for k, v in asdict(b).items() if k != "date"}, "date": b.date.isoformat()}
                    for b in series.bars
                ],
            }
            return json.dumps(doc, sort_keys=True, indent=2)

        bars = (
            OhlcvBar(date=date(2020, 1, 1), open=None, high=11.0, low=9.0, close=10.0,
                     adj_close=None, volume=None),
            OhlcvBar(date=date(2020, 1, 2)),
            OhlcvBar(date=date(2020, 1, 3), open=10.0, high=11.0, low=9.0, close=10.5,
                     adj_close=10.5, volume=120),
        )
        series = BarSeries(symbol="X\u00e9", bars=bars)
        assert bars_to_json(series) == reference(series)
        fixture, _, _ = make_coupled_fixture(n_days=30)
        assert bars_to_json(fixture) == reference(fixture)


class TestParseTweetsJsonl:
    def test_two_valid_lines(self):
        text = (
            '{"timestamp": "2020-01-01T10:00:00Z", "text": "hello", "id": "1"}\n'
            '{"timestamp": "2020-01-01T11:00:00+05:30", "text": "world", "id": "2"}\n'
        )
        stream = io.BytesIO(text.encode())
        tweets, skipped = parse_tweets_jsonl(stream)
        assert stream.closed is False
        assert [t.id for t in tweets] == ["1", "2"]
        assert skipped == 0
        assert tweets[0].timestamp.tzinfo is not None

    def test_malformed_lines_skipped_and_counted(self):
        text = (
            '{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": "1"}\n'
            "not json at all\n"
            '{"timestamp": "2020-01-01T10:00:00Z", "text": "   ", "id": "3"}\n'
            '{"timestamp": "garbage", "text": "x", "id": "4"}\n'
        )
        tweets, skipped = parse_tweets_jsonl(io.BytesIO(text.encode()))
        assert len(tweets) == 1
        assert skipped == 3

    def test_deeply_nested_line_skipped(self):
        valid = b'{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": "1"}\n'
        nested = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        tweets, skipped = parse_tweets_jsonl(io.BytesIO(valid + nested))
        assert len(tweets) == 1
        assert skipped == 1

    def test_only_malformed_is_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_tweets_jsonl(io.BytesIO(b"oops\n{}\n"))

    def test_blank_lines_ignored_silently(self):
        text = '\n{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": "1"}\n\n'
        tweets, skipped = parse_tweets_jsonl(io.BytesIO(text.encode()))
        assert len(tweets) == 1 and skipped == 0

    def test_order_preserved(self):
        _, tweets, _ = make_coupled_fixture(n_days=10)
        import fixtures

        again = fixtures.roundtrip_tweets(tweets)
        assert [t.id for t in again] == [t.id for t in tweets]

    @pytest.mark.parametrize("field, value", [
        ("text", ["good"]),
        ("text", None),
        ("text", 5),
        ("text", {"body": "good"}),
        ("timestamp", 1577872800),
        ("timestamp", None),
        ("id", None),
        ("id", True),
        ("id", 1.5),
        ("id", ["1"]),
    ])
    def test_field_of_wrong_type_skipped(self, field, value):
        record = {"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": "1", field: value}
        valid = '{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": "0"}'
        tweets, skipped = parse_tweets_jsonl(io.BytesIO(f"{valid}\n{json.dumps(record)}\n".encode()))
        assert [t.id for t in tweets] == ["0"]
        assert skipped == 1

    def test_integer_id_kept_as_its_digits(self):
        line = '{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": 17}\n'
        tweets, skipped = parse_tweets_jsonl(io.BytesIO(line.encode()))
        assert tweets[0].id == "17" and skipped == 0

    def test_number_too_long_for_int_skipped(self):
        valid = '{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": "0"}\n'
        huge = '{"timestamp": "2020-01-01T10:00:00Z", "text": "ok", "id": ' + "1" * 5000 + "}\n"
        tweets, skipped = parse_tweets_jsonl(io.BytesIO((valid + huge).encode()))
        assert len(tweets) == 1 and skipped == 1


def reference_parse_tweet_line(line: str) -> Tweet | None:
    """_parse_tweet_line's rule through json.loads, as it read before it
    decoded with raw_decode."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict) or not {"timestamp", "text", "id"} <= obj.keys():
        return None
    ts, text, tweet_id = obj["timestamp"], obj["text"], obj["id"]
    if not (isinstance(ts, str) and isinstance(text, str)):
        return None
    if isinstance(tweet_id, bool) or not isinstance(tweet_id, (str, int)):
        return None
    if ts.endswith(("Z", "z")):
        ts = ts[:-1] + "+00:00"
    try:
        return Tweet(timestamp=datetime.fromisoformat(ts), text=text, id=str(tweet_id))
    except ValueError:
        return None


def parsed_as_jsonl_line(line: str) -> Tweet | None:
    """_parse_tweet_line on ``line`` as parse_tweets_jsonl hands it over."""
    return _parse_tweet_line(line.strip())


VALID_LINE = '{"timestamp": "2020-01-01T10:00:00Z", "text": "good day", "id": "1"}'

#: Characters the JSON escaper treats specially, and ones beyond ASCII.
AWKWARD_CHARS = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u00e9", "\u4e2d",
     "\U0001f600", "\ud800", "\udfff", "\ufeff"]
)
TEXT = st.text(alphabet=st.one_of(st.characters(exclude_categories=()), AWKWARD_CHARS), min_size=1, max_size=30)
TIMEZONES = st.sampled_from([
    None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-4)),
    timezone(timedelta(seconds=-3601, microseconds=5)),
])


class TestTextPathReferences:
    """The hand-built writer and the raw_decode parser against json.dumps
    and json.loads."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        text=TEXT.filter(str.strip),
        tweet_id=TEXT,
        stamp=st.datetimes(timezones=TIMEZONES),
    )
    def test_tweet_line_equals_json_dumps(self, text, tweet_id, stamp):
        tweet = Tweet(timestamp=stamp, text=text, id=tweet_id)
        expected = json.dumps(
            {"timestamp": stamp.isoformat(), "text": text, "id": tweet_id}, sort_keys=True
        )
        assert tweet_to_json_line(tweet) == expected
        reparsed = reference_parse_tweet_line(expected)
        assert reparsed is not None and parsed_as_jsonl_line(expected) == reparsed

    @pytest.mark.parametrize("line", [
        pytest.param(VALID_LINE, id="valid"),
        pytest.param(VALID_LINE + " x", id="trailing-word"),
        pytest.param(VALID_LINE + VALID_LINE, id="two-objects"),
        pytest.param(VALID_LINE + "}", id="trailing-brace"),
        pytest.param("\ufeff" + VALID_LINE, id="bom"),
        pytest.param(" \t" + VALID_LINE + " \r ", id="surrounding-whitespace"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": NaN}', id="nan-id"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": Infinity}', id="infinity-id"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": -Infinity, "x": NaN}',
                     id="minus-infinity-id"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": "1", "x": NaN}',
                     id="nan-elsewhere"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": 12, "id": "13"}',
                     id="repeated-key"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": 1' + "0" * 4400 + "}",
                     id="number-too-long"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "good", "id": "1", "x": '
                     + "[" * 100_000 + "]" * 100_000 + "}", id="too-deep-inside"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="too-deep"),
        pytest.param('{"timestamp": "2020-01-01T10:00:00Z", "text": "\\ud83d\\ude00 \\ud800 \\"q\\"", "id": "1"}',
                     id="escapes"),
        pytest.param('"just a string"', id="string"),
        pytest.param("[]", id="array"),
        pytest.param("{}", id="empty-object"),
        pytest.param("nul", id="truncated-literal"),
    ])
    def test_parse_equals_json_loads(self, line):
        assert parsed_as_jsonl_line(line) == reference_parse_tweet_line(line)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        fields=st.fixed_dictionaries({
            "timestamp": st.one_of(
                st.datetimes(timezones=TIMEZONES).map(datetime.isoformat),
                st.datetimes(timezones=TIMEZONES).map(datetime.isoformat),
                st.sampled_from(["2020-01-01T10:00:00Z", "2020-02-30T10:00:00Z", "2020-01-01", "x"]),
                st.integers(),
            ),
            "text": st.one_of(TEXT, TEXT, TEXT, st.none(), st.lists(TEXT, max_size=2)),
            "id": st.one_of(TEXT, st.integers(), TEXT, st.integers(), st.booleans(), st.none(), st.floats()),
        }),
        missing=st.sampled_from([None, None, None, "timestamp", "text", "id"]),
        value=st.recursive(
            st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), TEXT),
            lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)),
            max_leaves=6,
        ),
        before=st.sampled_from(["", "", "", "", "", " ", "\t", "\ufeff", "x"]),
        after=st.sampled_from(["", "", "", "", "", " \r", "x", "}", " 1", ' {"a": 1}']),
    )
    def test_generated_lines_parse_as_with_json_loads(self, fields, missing, value, before, after):
        fields.pop(missing, None)
        for doc in (fields, {**fields, "extra": value}, value):
            line = before + json.dumps(doc) + after
            assert parsed_as_jsonl_line(line) == reference_parse_tweet_line(line)


def ts(day: date) -> datetime:
    return datetime(day.year, day.month, day.day, 12, 0, tzinfo=timezone.utc)


class TestAlignment:
    CAL = (date(2020, 1, 6), date(2020, 1, 7), date(2020, 1, 8))  # Mon..Wed

    def test_weekend_rolls_forward(self):
        tweet = Tweet(timestamp=ts(date(2020, 1, 4)), text="sat", id="1")  # Saturday
        buckets, dropped = align_to_trading_days([tweet], self.CAL)
        assert buckets[date(2020, 1, 6)] == [tweet]
        assert dropped == 0

    def test_trading_day_keeps_its_date(self):
        tweet = Tweet(timestamp=ts(date(2020, 1, 7)), text="tue", id="1")
        buckets, _ = align_to_trading_days([tweet], self.CAL)
        assert buckets[date(2020, 1, 7)] == [tweet]

    def test_after_final_date_dropped(self):
        tweet = Tweet(timestamp=ts(date(2020, 1, 9)), text="late", id="1")
        buckets, dropped = align_to_trading_days([tweet], self.CAL)
        assert dropped == 1
        assert sum(len(v) for v in buckets.values()) == 0

    def test_every_calendar_day_is_a_key(self):
        buckets, _ = align_to_trading_days([], self.CAL)
        assert tuple(buckets) == self.CAL

    def test_empty_calendar(self):
        with pytest.raises(PipelineError, match="trading calendar is empty"):
            align_to_trading_days([], [])

    def test_non_ascending_calendar(self):
        with pytest.raises(ValueError):
            align_to_trading_days([], [date(2020, 1, 7), date(2020, 1, 7)])

    def test_conservation_and_first_fit_randomized(self):
        rng = np.random.default_rng(42)
        cal = sorted({date(2020, 1, 1 + int(d)) for d in rng.choice(28, size=10, replace=False)})
        for _ in range(50):
            tweets = [
                Tweet(timestamp=ts(date(2020, 1, 1 + int(rng.integers(0, 31)))), text="x", id=str(k))
                for k in range(int(rng.integers(0, 40)))
            ]
            buckets, dropped = align_to_trading_days(tweets, cal)
            assert sum(len(v) for v in buckets.values()) + dropped == len(tweets)
            for key, members in buckets.items():
                for tweet in members:
                    day = tweet.timestamp.date()
                    assert day <= key
                    assert not any(day <= d < key for d in cal if d != key)
