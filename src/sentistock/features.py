"""Feature fusion with imputation, min-max scaling, and window construction.

Two feature modes exist:

  * ``hisa``: open price plus daily positive and negative tweet percentages
    (3 columns).
  * ``dlpm``: open, high, low, close prices only (4 columns); sentiment
    input is ignored entirely.

Both modes share one target, two sessions past a window's last input row
(:class:`WindowSpec`), so a comparison between them isolates the feature
set. :func:`fuse` reads the bars one numeric field at a time and fills
each field's missing cells with its train-side mean, and scaling
statistics are always fitted on the training rows alone; test rows may
legitimately land outside [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Sequence

from ._numpy import np
from .errors import PipelineError
from .market_data import BarSeries, NUMERIC_FIELDS
from .sentiment import DailySentiment

FEATURE_MODES = ("hisa", "dlpm")
HISA_FEATURES = ("open", "pos_pct", "neg_pct")
DLPM_FEATURES = ("open", "high", "low", "close")
TARGET_COLUMN = "target"


@dataclass(frozen=True)
class WindowSpec:
    """The model's data contract, its values checked once, when it is built.

    Window j holds feature rows (bars) j .. j+lookback-1 and is labelled with
    ``target_field`` of bar j+lookback+1, two sessions after its last input
    row; the label's row is dated at bar j+lookback, one session before. The
    split lands at floor(split_fraction * rows).
    """

    feature_mode: str = "hisa"
    lookback: int = 30
    split_fraction: float = 0.75
    target_field: str = "close"

    def __post_init__(self):
        if self.feature_mode not in FEATURE_MODES:
            raise PipelineError(f"unknown feature mode {self.feature_mode!r}")
        if self.lookback < 1:
            raise PipelineError(f"lookback must be positive, got {self.lookback}")
        if not 0.0 < self.split_fraction < 1.0:
            raise PipelineError(f"split_fraction must lie strictly between 0 and 1, got {self.split_fraction}")
        if self.target_field not in NUMERIC_FIELDS:
            raise PipelineError(f"unknown target field {self.target_field!r}")


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max fitted on training rows only."""

    feature_names: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.feature_names) == len(self.mins) == len(self.maxs)):
            raise PipelineError("scaler name/min/max lengths differ")
        for name, lo, hi in zip(self.feature_names, self.mins, self.maxs):
            if not hi > lo:
                raise PipelineError(f"column {name!r} has max {hi} <= min {lo}")


@dataclass(frozen=True)
class FusedDataset:
    """Aligned per-trading-day feature rows plus next-day targets.

    ``scaler`` is None while the dataset still holds raw currency values;
    :func:`scale_dataset` returns the normalized twin with the fitted
    scaler attached. ``dates[t]`` is the as-of date of feature row t and
    ``targets[t]`` is the target field one trading day later.
    ``feature_names`` are the columns :func:`fuse` chose for its mode.
    """

    dates: tuple[date, ...]
    feature_names: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray
    split_index: int
    scaler: ScalerParams | None = None

    def __post_init__(self):
        rows = len(self.dates)
        if self.features.shape != (rows, len(self.feature_names)):
            raise PipelineError(
                f"features shape {self.features.shape} does not match "
                f"{rows} dates x {len(self.feature_names)} columns"
            )
        if self.targets.shape != (rows,):
            raise PipelineError(f"targets shape {self.targets.shape} != ({rows},)")
        if not 0 < self.split_index < rows:
            raise PipelineError(f"split_index {self.split_index} does not partition {rows} rows")


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised sequences: (samples, lookback, features) plus labels;
    ``lookback`` reads the sequences' second axis."""

    sequences: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.sequences.ndim != 3:
            raise PipelineError(f"sequences shape {self.sequences.shape} is not (samples, lookback, features)")
        if self.labels.shape != (self.sequences.shape[0],):
            raise PipelineError("one label per sequence required")

    @property
    def lookback(self) -> int:
        return self.sequences.shape[1]

    def __len__(self) -> int:
        return self.sequences.shape[0]


def fuse(series: BarSeries, sentiment: Sequence[DailySentiment], spec: WindowSpec) -> FusedDataset:
    """Merge bars (and, in hisa mode, daily sentiment) into feature rows.

    Row t carries date t's features; its target is ``spec.target_field`` at
    date t+1, so the final bar contributes only a target. The chronological
    split lands at floor(split_fraction * rows). The bars are read column by
    column: a missing cell takes its field's mean over the train-side bars,
    so no test row informs it. Raw currency values are kept, as float64;
    call :func:`scale_dataset` before windowing for training.
    """
    rows = len(series.bars) - 1
    train_rows = math.floor(spec.split_fraction * rows)
    if train_rows < 1 or train_rows >= rows:
        raise PipelineError(
            f"split_fraction {spec.split_fraction} on {max(rows, 0)} rows leaves an empty train or test side"
        )
    bars = series.bars
    cells = {field: [getattr(b, field) for b in bars] for field in NUMERIC_FIELDS}
    means: dict[str, float] = {}
    for field, values in cells.items():
        present = [v for v in values[:train_rows] if v is not None]
        if not present:
            raise PipelineError(f"field {field!r} has no present value in the training range "
                                f"ending {bars[train_rows - 1].date}")
        means[field] = sum(present) / len(present)
    # A mean that overflowed is refused at the earliest bar it would fill.
    overflowed = [(values.index(None), k, field) for k, (field, values) in enumerate(cells.items())
                  if None in values and not math.isfinite(means[field])]
    if overflowed:
        t, _, field = min(overflowed)
        raise PipelineError(f"{bars[t].date}: non-finite {field} {means[field]!r}")
    columns = {field: [means[field] if v is None else v for v in values]
               for field, values in cells.items()}

    name_cols = HISA_FEATURES if spec.feature_mode == "hisa" else DLPM_FEATURES
    if spec.feature_mode == "hisa":
        by_date: dict[date, DailySentiment] = {s.date: s for s in sentiment}
        days = [by_date.get(b.date) for b in bars[:rows]]
        if None in days:
            raise PipelineError(f"no sentiment record for trading date {bars[days.index(None)].date}")
        columns["pos_pct"] = [d.pos_pct for d in days]
        columns["neg_pct"] = [d.neg_pct for d in days]
    # Column by column into float64, whatever numeric type the bars hold.
    matrix = np.empty((rows, len(name_cols)), dtype=np.float64)
    for j, name in enumerate(name_cols):
        matrix[:, j] = columns[name][:rows]

    return FusedDataset(
        dates=tuple(b.date for b in bars[:rows]),
        feature_names=tuple(name_cols),
        features=matrix,
        targets=np.array(columns[spec.target_field][1:], dtype=np.float64),
        split_index=train_rows,
    )


def scale_dataset(dataset: FusedDataset, scaler: ScalerParams | None = None) -> FusedDataset:
    """x' = (x - min) / (max - min) per column, the target included.

    With no ``scaler``, the per-column min and max are fitted on the train
    rows; otherwise the given scaler (say, a checkpoint's) is applied. The
    target gets its own scaler column so model outputs invert back to
    currency units. No clipping: test rows may fall outside [0, 1].
    """
    if dataset.scaler is not None:
        raise ValueError("dataset is already scaled")
    expected = dataset.feature_names + (TARGET_COLUMN,)
    joint = np.column_stack([dataset.features, dataset.targets])
    if scaler is None:
        train = joint[:dataset.split_index]
        scaler = ScalerParams(
            feature_names=expected,
            mins=tuple(train.min(axis=0).tolist()),
            maxs=tuple(train.max(axis=0).tolist()),
        )
    elif scaler.feature_names != expected:
        raise PipelineError(
            f"scaler columns {scaler.feature_names} do not match dataset columns {expected}"
        )
    mins = np.array(scaler.mins)
    maxs = np.array(scaler.maxs)
    scaled = (joint - mins) / (maxs - mins)
    return replace(dataset, features=scaled[:, :-1], targets=scaled[:, -1], scaler=scaler)


def invert_target(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    """Map normalized target values back to currency units."""
    lo = scaler.mins[-1]
    hi = scaler.maxs[-1]
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


def make_windows(dataset: FusedDataset, spec: WindowSpec) -> tuple[WindowedDataset, WindowedDataset]:
    """Cut the dataset into walk-forward training and test sequences of
    ``spec.lookback`` rows.

    Window j covers feature rows [j, j+lookback) and is labeled with
    targets[j+lookback], the target row just past the window's end. Train
    labels stay strictly inside the train region; test windows may reach
    back into trailing train rows for history. Counts:
    train = split_index - lookback, test = rows - split_index.
    """
    lookback = spec.lookback
    rows = len(dataset.dates)
    if rows < lookback + 2:
        raise PipelineError(f"{rows} rows cannot support lookback {lookback} (need {lookback + 2})")
    if dataset.split_index - lookback < 1:
        raise PipelineError(
            f"split_index {dataset.split_index} leaves no training window for lookback {lookback}"
        )

    # Read-only views of the feature rows: window j is features[j:j + lookback].
    windows = np.lib.stride_tricks.sliding_window_view(dataset.features, lookback, axis=0)
    seqs = windows[:rows - lookback].transpose(0, 2, 1)
    labels = dataset.targets[lookback:]

    n_train = dataset.split_index - lookback
    train = WindowedDataset(seqs[:n_train], labels[:n_train])
    test = WindowedDataset(seqs[n_train:], labels[n_train:])
    return train, test
