#!/usr/bin/env python3
"""Walkthrough: the full comparison, sentiment-fused features vs prices only.

Builds a synthetic market whose next-day close is partially driven by the
day's tweet mix, then trains both feature modes at several epoch sizes with
one shared seed and renders the accuracy table. Because the sentiment
driver is real signal here, the hisa feature set should come out ahead.

    python3 demos/05_hisa_vs_dlpm.py
"""

import io
from datetime import date, datetime, timedelta, timezone

import numpy as np

from sentistock import BarSeries, OhlcvBar, Tweet, TrainConfig, WindowSpec, load_lexicon, render_table, run_comparison

LEXICON = "good\t0.8\t1.0\tterm\nbad\t-0.8\t1.0\tterm\n"
N_DAYS, LEVEL = 160, 100.0

rng = np.random.default_rng(42)

days = []
d = date(2021, 1, 4)
while len(days) < N_DAYS:
    if d.weekday() < 5:
        days.append(d)
    d += timedelta(days=1)

# Daily driver s in [-1, 1] -> tweet mix -> next-day close.
driver = 0.0
mixes, realized = [], []
for _ in range(N_DAYS):
    driver = float(np.clip(0.5 * driver + 0.5 * rng.uniform(-1, 1), -1, 1))
    n = int(rng.integers(10, 20))
    k_pos = max(0, min(n, int(round(n * (0.4 + 0.3 * driver)))))
    k_neg = max(0, min(n - k_pos, int(round(n * (0.4 - 0.3 * driver)))))
    mixes.append((k_pos, k_neg, n - k_pos - k_neg))
    realized.append((k_pos - k_neg) / n)

closes = [LEVEL]
for t in range(N_DAYS - 1):
    nxt = 0.15 * closes[-1] + 0.85 * LEVEL * (1 + 0.2 * realized[t])
    closes.append(nxt + float(rng.normal(0, 0.25)))

bars, prev = [], LEVEL
for t, day in enumerate(days):
    o, c = prev * (1 + float(rng.normal(0, 0.002))), closes[t]
    bars.append(OhlcvBar(
        date=day, open=o, close=c, adj_close=c,
        high=max(o, c) * (1 + abs(float(rng.normal(0, 0.003)))),
        low=min(o, c) * (1 - abs(float(rng.normal(0, 0.003)))),
        volume=float(rng.integers(50_000, 500_000)),
    ))
    prev = c

tweets, k = [], 0
for t, day in enumerate(days):
    k_pos, k_neg, k_neu = mixes[t]
    texts = ["good day"] * k_pos + ["bad day"] * k_neg + ["still watching"] * k_neu
    for i, text in enumerate(texts):
        stamp = datetime(day.year, day.month, day.day, 10, tzinfo=timezone.utc) + timedelta(minutes=i)
        tweets.append(Tweet(timestamp=stamp, text=text, id=f"d{k}"))
        k += 1

series = BarSeries(symbol="DEMO", bars=tuple(bars))
lexicon = load_lexicon(io.BytesIO(LEXICON.encode()))

print(f"synthetic market: {N_DAYS} trading days, {len(tweets)} tweets")
print("training both feature modes at epoch sizes 5, 10, 15 (shared seed)...\n")

config = TrainConfig(epochs=5, learning_rate=0.02, batch_size=16, seed=1,
                     grad_clip_norm=5.0, optimizer="adam", hidden_size=32)
report = run_comparison(series, tweets, lexicon, [5, 10, 15], config, spec=WindowSpec(lookback=15))

print(render_table(report))
gap = report.averages["hisa"] - report.averages["dlpm"]
print(f"average-accuracy gap (hisa - dlpm): {gap:+.2f} percentage points")
print("\nReal-vs-predicted series for external plotting live on each record")
print("(dates, real, predicted), or use the CLI compare command's CSVs.")
