"""Accuracy/MAPE/RMSE metrics and the hisa-vs-dlpm comparison protocol.

Accuracy is defined as 100 - MAPE over the test split. Every comparison
trains both feature modes with an identical seed and hyperparameters apart
from the feature set and epoch count, so the reported gap isolates what
the sentiment features add.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import date
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EmptyInput, LengthMismatch, ZeroActual
from .features import fuse, impute_for_split, invert_target, make_windows, scale_dataset
from .lstm import Checkpoint, TrainConfig, predict, train
from .market_data import BarSeries, Tweet, align_to_trading_days
from .sentiment import DailySentiment, Lexicon, aggregate_daily, score_corpus


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error: 100 * mean(|a - p| / |a|)."""
    a, p = _paired(actual, predicted)
    if np.any(a == 0.0):
        raise ZeroActual("actual series contains a zero; MAPE is undefined")
    return float(100.0 * np.mean(np.abs(a - p) / np.abs(a)))


def accuracy(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """100 - MAPE, the regression accuracy used throughout reporting."""
    return 100.0 - mape(actual, predicted)


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    a, p = _paired(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise LengthMismatch(f"series shapes differ: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise EmptyInput("metric requires at least one point")
    return a, p


@dataclass(frozen=True)
class VariantRecord:
    """Metrics and plot series for one (feature mode, epoch count) run."""

    variant: str
    epochs: int
    accuracy_pct: float
    mape_pct: float
    rmse: float
    dates: tuple[date, ...]
    real: tuple[float, ...]
    predicted: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.dates) == len(self.real) == len(self.predicted)):
            raise LengthMismatch("dates/real/predicted lengths differ")


@dataclass(frozen=True)
class EvalReport:
    """All variant-epoch records plus per-variant average accuracy."""

    records: tuple[VariantRecord, ...]
    averages: tuple[tuple[str, float], ...]

    @classmethod
    def from_records(cls, records: Sequence[VariantRecord]) -> "EvalReport":
        """Build a report, computing each variant's arithmetic mean accuracy."""
        variants = []
        for rec in records:
            if rec.variant not in variants:
                variants.append(rec.variant)
        averages = []
        for variant in variants:
            accs = [r.accuracy_pct for r in records if r.variant == variant]
            averages.append((variant, sum(accs) / len(accs)))
        return cls(records=tuple(records), averages=tuple(averages))

    def average_for(self, variant: str) -> float:
        for name, value in self.averages:
            if name == variant:
                return value
        raise KeyError(variant)


def run_comparison(
    historical: BarSeries,
    sentiment: Sequence[Tweet],
    lexicon: Lexicon,
    epoch_sizes: Sequence[int],
    base_config: TrainConfig,
    lookback: int = 30,
    split_fraction: float = 0.75,
    target_field: str = "close",
    checkpoint_sink: Callable[[str, int, Checkpoint], None] | None = None,
) -> EvalReport:
    """Train and score both feature modes at every epoch size.

    Each run shares the seed, hidden size, lookback, and split; only the
    feature set and epoch count differ. Each mode is trained once, to the
    largest epoch size, and the checkpoint at every smaller size is taken on
    the way; it is the one a separate run of that many epochs would give.
    Records come out epoch-major with the historical-only baseline first,
    mirroring the reporting table. ``checkpoint_sink`` (variant, epochs,
    checkpoint) is invoked once per record, in record order, so callers can
    persist the trained models.
    """
    if not epoch_sizes or min(epoch_sizes) < 1:
        raise ConfigError(f"epoch_sizes must be one or more positive integers, got {list(epoch_sizes)}")

    series = impute_for_split(historical, split_fraction)
    daily, _ = daily_sentiment(sentiment, series, lexicon)
    config = replace(base_config, epochs=max(epoch_sizes))

    snapshots: dict[tuple[str, int], Checkpoint] = {}

    def keep(checkpoint: Checkpoint) -> None:
        if checkpoint.config.epochs in epoch_sizes:
            snapshots[checkpoint.feature_mode, checkpoint.config.epochs] = checkpoint

    test_sets = {}
    for variant in ("dlpm", "hisa"):
        dataset = fuse(
            series,
            daily,
            mode=variant,
            target_field=target_field,
            split_fraction=split_fraction,
        )
        scaled = scale_dataset(dataset)
        train_windows, test_windows = make_windows(scaled, lookback)
        train(train_windows, config, scaler=scaled.scaler, feature_mode=variant, on_epoch=keep)
        real = invert_target(test_windows.labels, scaled.scaler)
        test_sets[variant] = (test_windows, real, dataset.dates[dataset.split_index:])

    records = []
    for epochs in epoch_sizes:
        for variant in ("dlpm", "hisa"):
            checkpoint = snapshots[variant, epochs]
            if checkpoint_sink is not None:
                checkpoint_sink(variant, epochs, checkpoint)
            test_windows, real, dates = test_sets[variant]
            predicted = predict(checkpoint, test_windows)
            m = mape(real, predicted)
            records.append(
                VariantRecord(
                    variant=variant,
                    epochs=epochs,
                    accuracy_pct=100.0 - m,
                    mape_pct=m,
                    rmse=rmse(real, predicted),
                    dates=dates,
                    real=tuple(real.tolist()),
                    predicted=tuple(predicted.tolist()),
                )
            )
    return EvalReport.from_records(records)


def daily_sentiment(
    tweets: Sequence[Tweet], series: BarSeries, lexicon: Lexicon
) -> tuple[list[DailySentiment], int]:
    """Per-trading-day class percentages of ``series``'s sessions.

    Returns (records, dropped): one record per trading date, and the count
    of tweets dated after the final session.
    """
    buckets, dropped = align_to_trading_days(tweets, series.dates())
    return aggregate_daily(score_corpus(buckets, lexicon)), dropped


def render_table(report: EvalReport) -> str:
    """Plain-text comparison table: epoch sizes x models plus averages."""
    rows = [("Epoch size", "Model", "Accuracy")]
    seen = []
    for rec in report.records:
        if rec.epochs not in seen:
            seen.append(rec.epochs)
    for epochs in seen:
        for rec in report.records:
            if rec.epochs == epochs:
                rows.append((str(epochs), rec.variant, f"{rec.accuracy_pct:.2f}%"))
    for variant, avg in report.averages:
        rows.append(("Average", variant, f"{avg:.2f}%"))

    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[c] for c in range(3)))
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> str:
    doc = {
        "version": 1,
        "records": [
            {
                "variant": r.variant,
                "epochs": r.epochs,
                "accuracy_pct": r.accuracy_pct,
                "mape_pct": r.mape_pct,
                "rmse": r.rmse,
                "dates": [d.isoformat() for d in r.dates],
                "real": list(r.real),
                "predicted": list(r.predicted),
            }
            for r in report.records
        ],
        "averages": {variant: value for variant, value in report.averages},
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def record_plot_csv(dates: Sequence[date], real: Sequence[float], predicted: Sequence[float]) -> str:
    """Plot-ready CSV (date, real, predicted), one row per test day."""
    lines = ["date,real,predicted"]
    for d, r, p in zip(dates, real, predicted):
        lines.append(f"{d.isoformat()},{float(r)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"
