"""Synthetic data builders shared across the test suite.

The coupled fixture injects a daily sentiment driver into the next day's
close so models that can see the tweet percentages have real signal to
learn; the historical-only baseline sees the same prices but not the
driver.
"""

import io
from datetime import date, datetime, timedelta, timezone

import numpy as np

from sentistock.market_data import BarSeries, OhlcvBar, Tweet, parse_ohlcv_csv, parse_tweets_jsonl
from sentistock.sentiment import Lexicon, load_lexicon

LEXICON_TSV = """term\tpolarity\tintensity\tflag
good\t0.7\t1.0\tterm
great\t0.9\t1.0\tterm
strong\t0.6\t1.0\tterm
bad\t-0.7\t1.0\tterm
terrible\t-0.9\t1.0\tterm
weak\t-0.6\t1.0\tterm
not\t0\t1.0\tnegator
very\t0\t1.3\tterm
"""

POSITIVE_TEXTS = ("good results today", "great quarter", "strong outlook ahead")
NEGATIVE_TEXTS = ("bad results today", "terrible quarter", "weak outlook ahead")
NEUTRAL_TEXTS = ("market update posted", "watching the tape", "no change expected")


def fixture_lexicon() -> Lexicon:
    return load_lexicon(io.BytesIO(LEXICON_TSV.encode()))


def trading_days(n: int, start: date = date(2020, 1, 1)) -> list[date]:
    """First n weekdays on or after start."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _tweet_mixes(rng, n_days: int) -> list[tuple[int, int, int]]:
    """Each day's (positive, negative, neutral) tweet counts, drawn from
    ``rng`` along a smooth driver s_t in [-1, 1]."""
    mixes = []
    s = 0.0
    for _ in range(n_days):
        s = float(np.clip(0.5 * s + 0.5 * rng.uniform(-1.0, 1.0), -1.0, 1.0))
        n_tweets = int(rng.integers(12, 25))
        k_pos = int(round(n_tweets * (0.4 + 0.3 * s)))
        k_pos = max(0, min(n_tweets, k_pos))
        k_neg = int(round(n_tweets * (0.4 - 0.3 * s)))
        k_neg = max(0, min(n_tweets - k_pos, k_neg))
        mixes.append((k_pos, k_neg, n_tweets - k_pos - k_neg))
    return mixes


def make_coupled_fixture(
    n_days: int = 250,
    seed: int = 2024,
    gain: float = 0.2,
    mean_reversion: float = 0.15,
    noise_sd: float = 0.25,
    tweets_seed: int | None = None,
):
    """Synthetic market where sentiment partially drives the next close.

    Returns (BarSeries, tweets, Lexicon). Each day's tweet mix follows a
    smooth driver s_t in [-1, 1]; the realized positive-minus-negative
    tweet fraction of day t then feeds close_{t+1} along with mild mean
    reversion and Gaussian noise, so the sentiment percentages of a row
    carry genuine information about that row's next-day target. Tweet
    texts are single-keyword so the pipeline's realized daily percentages
    match the generator's intent exactly.

    The tweets follow the driver that ``tweets_seed`` draws (default:
    ``seed``); any other seed's tweets say nothing about these prices.
    """
    rng = np.random.default_rng(seed)
    days = trading_days(n_days)

    level = 100.0
    realized = [(k_pos - k_neg) / (k_pos + k_neg + k_neu) for k_pos, k_neg, k_neu in _tweet_mixes(rng, n_days)]
    tweet_mix = _tweet_mixes(np.random.default_rng(seed if tweets_seed is None else tweets_seed), n_days)

    closes = [level]
    for t in range(n_days - 1):
        nxt = mean_reversion * closes[-1] + (1.0 - mean_reversion) * level * (
            1.0 + gain * realized[t]
        )
        closes.append(nxt + float(rng.normal(0.0, noise_sd)))

    bars = []
    prev_close = level
    for t, day in enumerate(days):
        o = prev_close * (1.0 + float(rng.normal(0.0, 0.002)))
        c = closes[t]
        hi = max(o, c) * (1.0 + abs(float(rng.normal(0.0, 0.003))))
        lo = min(o, c) * (1.0 - abs(float(rng.normal(0.0, 0.003))))
        bars.append(
            OhlcvBar(
                date=day, open=o, high=hi, low=lo, close=c, adj_close=c,
                volume=float(rng.integers(100_000, 1_000_000)),
            )
        )
        prev_close = c

    tweets = []
    counter = 0
    for t, day in enumerate(days):
        k_pos, k_neg, k_neu = tweet_mix[t]
        texts = (
            [POSITIVE_TEXTS[i % len(POSITIVE_TEXTS)] for i in range(k_pos)]
            + [NEGATIVE_TEXTS[i % len(NEGATIVE_TEXTS)] for i in range(k_neg)]
            + [NEUTRAL_TEXTS[i % len(NEUTRAL_TEXTS)] for i in range(k_neu)]
        )
        for i, text in enumerate(texts):
            ts = datetime(day.year, day.month, day.day, 10, 0, tzinfo=timezone.utc)
            tweets.append(Tweet(timestamp=ts + timedelta(minutes=i), text=text, id=f"t{counter}"))
            counter += 1

    series = BarSeries(symbol="SYNTH", bars=tuple(bars))
    return series, tweets, fixture_lexicon()


def bars_to_csv(series: BarSeries) -> str:
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for b in series.bars:
        lines.append(
            f"{b.date.isoformat()},{b.open!r},{b.high!r},{b.low!r},{b.close!r},"
            f"{b.adj_close!r},{b.volume!r}"
        )
    return "\n".join(lines) + "\n"


def tweets_to_jsonl(tweets) -> str:
    import json

    return "".join(
        json.dumps({"timestamp": t.timestamp.isoformat(), "text": t.text, "id": t.id}) + "\n"
        for t in tweets
    )


def write_cli_fixture(tmp_path, n_days: int = 90, seed: int = 7, **config_overrides):
    """Write CSV/JSONL/TSV fixture files plus a config.ini; returns the config path."""
    series, tweets, _ = make_coupled_fixture(n_days=n_days, seed=seed)
    (tmp_path / "prices.csv").write_text(bars_to_csv(series), encoding="utf-8")
    (tmp_path / "tweets.jsonl").write_text(tweets_to_jsonl(tweets), encoding="utf-8")
    (tmp_path / "lexicon.tsv").write_text(LEXICON_TSV, encoding="utf-8")

    settings = {
        "historical": "prices.csv",
        "tweets": "tweets.jsonl",
        "lexicon": "lexicon.tsv",
        "out": str(tmp_path / "out"),
        "lookback": 10,
        "hidden_size": 8,
        "learning_rate": 0.01,
        "batch_size": 16,
        "seed": 7,
        "epochs": 5,
        "epoch_sizes": "5,10,15",
        "feature_mode": "hisa",
        "target_field": "close",
    }
    settings.update(config_overrides)
    lines = ["[run]"] + [f"{k} = {v}" for k, v in settings.items()]
    config_path = tmp_path / "config.ini"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config_path


def roundtrip_series(series: BarSeries) -> BarSeries:
    """Through the CSV writer and parser (convenience for identity tests)."""
    return parse_ohlcv_csv(io.BytesIO(bars_to_csv(series).encode()), symbol=series.symbol)


def roundtrip_tweets(tweets) -> list[Tweet]:
    parsed, _ = parse_tweets_jsonl(io.BytesIO(tweets_to_jsonl(tweets).encode()))
    return parsed
