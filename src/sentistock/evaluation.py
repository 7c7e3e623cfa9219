"""Accuracy/MAPE/RMSE metrics and the hisa-vs-dlpm comparison protocol.

Accuracy is defined as 100 - MAPE over the test split. Every comparison
trains both feature modes with an identical seed and hyperparameters apart
from the feature set and epoch count, so the reported gap isolates what
the sentiment features add.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Callable, Sequence

from ._numpy import np
from .errors import EmptyInput, NonFiniteLoss, PipelineError
from .features import ScalerParams, WindowSpec, WindowedDataset, fuse, invert_target, make_windows, scale_dataset
from .lstm import Checkpoint, TrainConfig, checkpoint_to_json, predict, train
from .market_data import BarSeries, Tweet, align_to_trading_days
from .sentiment import DailySentiment, Lexicon, aggregate_daily, score_corpus


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error: 100 * mean(|a - p| / |a|). A term
    that overflows makes it infinite, without a numpy warning (as in
    :func:`rmse`); :func:`report_to_json` refuses the number."""
    a, p = _paired(actual, predicted)
    if np.any(a == 0.0):
        raise PipelineError("actual series contains a zero; MAPE is undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(100.0 * np.mean(np.abs(a - p) / np.abs(a)))


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    a, p = _paired(actual, predicted)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(np.mean((a - p) ** 2)))


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise PipelineError(f"series shapes differ: {a.shape} vs {p.shape}")
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
            raise PipelineError("dates/real/predicted lengths differ")


@dataclass(frozen=True)
class EvalReport:
    """All variant-epoch records plus each variant's average accuracy, which
    is computed from the records: arithmetic means, keyed in record order.

    The daily-sentiment counts (trading days, days with no tweets, tweets
    dated after the final session) describe the run for its log; they are
    not part of the report document.
    """

    records: tuple[VariantRecord, ...]
    averages: dict[str, float] = field(init=False)
    trading_days: int = 0
    zero_tweet_days: int = 0
    tweets_dropped: int = 0

    def __post_init__(self):
        averages = {}
        for variant in dict.fromkeys(rec.variant for rec in self.records):
            accs = [r.accuracy_pct for r in self.records if r.variant == variant]
            averages[variant] = sum(accs) / len(accs)
        object.__setattr__(self, "averages", averages)


VARIANTS = ("dlpm", "hisa")  # the modes a comparison trains, in record order: the baseline first


def run_comparison(
    historical: BarSeries,
    sentiment: Sequence[Tweet],
    lexicon: Lexicon,
    epoch_sizes: Sequence[int],
    base_config: TrainConfig,
    spec: WindowSpec = WindowSpec(),
    checkpoint_sink: Callable[[str, int, str], None] | None = None,
) -> EvalReport:
    """Train and score every mode of :data:`VARIANTS` at every epoch size.

    Each run shares the seed, hidden size, lookback, split and target; only
    the feature set and epoch count differ. Each mode is one job: it trains
    once, to the largest epoch size, taking the checkpoint at every smaller
    size on the way, the one a separate run of that many epochs would give.
    ``base_config.epochs`` and ``spec.feature_mode`` are ignored:
    ``max(epoch_sizes)`` and each mode replace them. Records come out
    epoch-major, modes in :data:`VARIANTS` order, mirroring the reporting table.
    ``checkpoint_sink`` (variant, epochs, document) receives the text of
    :func:`checkpoint_to_json` once per record, in record order, and only
    after every mode has trained, so callers can persist the trained
    models; without a sink no document is encoded.

    The jobs read nothing of each other. Each also encodes its checkpoints
    and predicts the test windows as each epoch size is reached, so its
    result is only those texts and predictions. When :func:`_fork_pays`
    holds, the first mode trains here and the others in a forked child
    (:func:`_run_jobs`); otherwise all train here, in order. The results
    are byte for byte the same either way, and a divergence raises the
    same :class:`NonFiniteLoss`, the first mode's first.
    """
    if not epoch_sizes or min(epoch_sizes) < 1 or len(set(epoch_sizes)) != len(epoch_sizes):
        raise PipelineError(f"epoch_sizes must be one or more positive integers, each once, got {list(epoch_sizes)}")

    daily, dropped = daily_sentiment(sentiment, historical, lexicon)
    config = replace(base_config, epochs=max(epoch_sizes))
    windows = {variant: model_windows(historical, daily, replace(spec, feature_mode=variant))
               for variant in VARIANTS}
    actuals = {v: (invert_target(test.labels, scaler), dates) for v, (_, test, scaler, dates) in windows.items()}

    def job(variant: str) -> dict[int, tuple[str | None, np.ndarray]]:
        """Train one mode; at every epoch size keep the checkpoint's document
        (None without a sink) and its test predictions, not the checkpoint."""
        train_windows, test_windows, scaler, _ = windows[variant]
        kept = {}

        def keep(checkpoint: Checkpoint) -> None:
            if checkpoint.config.epochs in epoch_sizes:
                document = checkpoint_to_json(checkpoint) if checkpoint_sink is not None else None
                kept[checkpoint.config.epochs] = (document, predict(checkpoint, test_windows))

        train(train_windows, config, scaler=scaler, feature_mode=variant, on_epoch=keep)
        return kept

    input_size = max(train_windows.sequences.shape[2] for train_windows, *_ in windows.values())
    fork = _fork_pays(input_size, config.hidden_size, config.batch_size)
    snapshots = dict(zip(VARIANTS, _run_jobs(job, VARIANTS, fork)))

    records = []
    for epochs in epoch_sizes:
        for variant in VARIANTS:
            document, predicted = snapshots[variant][epochs]
            if checkpoint_sink is not None:
                checkpoint_sink(variant, epochs, document)
            real, dates = actuals[variant]
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
    return EvalReport(
        tuple(records),
        trading_days=len(daily),
        zero_tweet_days=sum(1 for rec in daily if rec.tweet_count == 0),
        tweets_dropped=dropped,
    )


def _fork_pays(input_size: int, hidden_size: int, batch_size: int) -> bool:
    """Whether :func:`_run_jobs` saves time with its later jobs in a forked child.

    Forking needs ``os.fork``, two usable CPUs and no other Python thread.
    From Python 3.12, ``fork`` in a process with other OS threads warns, and
    OpenBLAS's thread pool is one, so those versions train inline.

    The size rule keeps each gate product ``(4H, F+H) @ (F+H, B)`` on one
    BLAS thread: OpenBLAS threads a GEMM once M*N*K reaches 2 * 262,144 =
    2**19, and two processes of such GEMMs oversubscribe its spinning
    threads. Two trainings, forked against one after the other, as time
    ratios on a 2-core shared host (Python 3.11.7, numpy 2.4.6, OpenBLAS
    0.3.31):

    ===  ===  =========  ===========
     H    B     M*N*K    fork/serial
    ===  ===  =========  ===========
     32   16     73,728         0.65
     32   64    294,912         0.53
     64   16    278,528         0.49
     64   32    557,056         2.20
    128   16  1,081,344         2.33
    128   64  4,325,376         1.96
    ===  ===  =========  ===========
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
        and sys.version_info < (3, 12)
        and batch_size * 4 * hidden_size * (input_size + hidden_size) < 2**19
    )


def _run_jobs(job: Callable[[str], object], names: Sequence[str], fork: bool) -> list:
    """``[job(name) for name in names]``; with ``fork``, ``names[1:]`` run in
    order in one forked child while ``job(names[0])`` runs here.

    The child pickles each result, or the exception a job raised, into a
    pipe as it comes, stops at an exception, and leaves by ``os._exit``, so
    it never returns into the caller's stack or flushes its stdio buffers.
    Results are unpickled straight from the pipe, which is read before the
    child is reaped, since a result can exceed a pipe's buffer. If this
    side raises, its exception wins, as it would inline, and the child is
    killed and reaped. The child's memory is not counted in this process's
    ``ru_maxrss``.
    """
    if not fork:
        return [job(name) for name in names]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                for name in names[1:]:
                    try:
                        outcome = job(name)
                    except BaseException as exc:
                        outcome = exc
                    pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    if isinstance(outcome, BaseException):
                        break
            code = 0
        finally:
            os._exit(code)

    status = None
    try:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            results = [job(names[0])]
            try:
                for _ in names[1:]:  # an exception is the child's last result
                    results.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                pass  # the child ended early; its wait status or its last result says why
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            import signal  # here, not at the top: the CLI's start-up never loads it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        raise PipelineError(f"training {', '.join(names[1:])} in a child process ended without a result "
                            f"(wait status {status})")
    if isinstance(results[-1], BaseException):
        raise results[-1]
    return results


def model_windows(
    series: BarSeries, daily: Sequence[DailySentiment], spec: WindowSpec, scaler: ScalerParams | None = None,
) -> tuple[WindowedDataset, WindowedDataset, ScalerParams, tuple[date, ...]]:
    """The model's view of the bars under ``spec``: :func:`fuse`, then
    :func:`scale_dataset` (fitted on the train rows unless ``scaler`` is
    given), then :func:`make_windows`. ``train``, ``predict`` and
    ``compare`` all build their data here, so every model sees the same
    split, imputation range, scaling range, lookback and target.

    Returns (train windows, test windows, scaler, test dates).
    """
    dataset = scale_dataset(fuse(series, daily, spec), scaler)
    train_windows, test_windows = make_windows(dataset, spec)
    return train_windows, test_windows, dataset.scaler, dataset.dates[dataset.split_index:]


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
    for epochs in dict.fromkeys(rec.epochs for rec in report.records):
        for rec in report.records:
            if rec.epochs == epochs:
                rows.append((str(epochs), rec.variant, f"{rec.accuracy_pct:.2f}%"))
    for variant, avg in report.averages.items():
        rows.append(("Average", variant, f"{avg:.2f}%"))

    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[c] for c in range(3)))
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> str:
    """The report document as JSON with sorted keys and an indent of 2; a NaN
    or infinity, which strict JSON cannot hold, raises :class:`NonFiniteLoss`."""
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
        "averages": report.averages,
    }
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteLoss(None, "report would hold a non-finite number") from exc


def record_plot_csv(dates: Sequence[date], real: Sequence[float], predicted: Sequence[float]) -> str:
    """Plot-ready CSV (date, real, predicted), one row per test day."""
    lines = ["date,real,predicted"]
    for d, r, p in zip(dates, real, predicted):
        lines.append(f"{d.isoformat()},{float(r)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"
