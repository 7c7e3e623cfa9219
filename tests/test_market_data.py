import io
import json
from datetime import date, datetime, timezone

import numpy as np
import pytest

from sentistock.errors import (
    DateParseError,
    DuplicateDate,
    EmptyInput,
    EmptyTradingCalendar,
    InvalidBar,
    MissingColumn,
)
from sentistock.market_data import (
    BarSeries,
    OhlcvBar,
    Tweet,
    align_to_trading_days,
    bars_to_json,
    parse_ohlcv_csv,
    parse_tweets_jsonl,
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
        with pytest.raises(DuplicateDate):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_missing_mapped_column(self):
        text = "Date,Open,High,Low,Close,Volume\n2020-01-01,10,11,9,10.5,100\n"
        with pytest.raises(MissingColumn):
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

    def test_unparseable_date(self):
        body = "Jan 1 2020,10,11,9,10.5,10.5,100\n"
        with pytest.raises(DateParseError):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_price_box_violation(self):
        body = "2020-01-01,10,9.5,9,10.5,10.5,100\n"  # high below open
        with pytest.raises(InvalidBar):
            parse_ohlcv_csv(csv_stream(HEADER + body))

    def test_negative_volume(self):
        body = "2020-01-01,10,11,9,10.5,10.5,-5\n"
        with pytest.raises(InvalidBar):
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
        with pytest.raises(EmptyTradingCalendar):
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
