import dataclasses
import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentistock.cli import RunConfig
from sentistock.errors import PipelineError
from sentistock.features import (
    DLPM_FEATURES,
    FEATURE_MODES,
    HISA_FEATURES,
    FusedDataset,
    ScalerParams,
    WindowSpec,
    WindowedDataset,
    fuse,
    invert_target,
    make_windows,
    scale_dataset,
)
from sentistock.market_data import NUMERIC_FIELDS, PRICE_FIELDS, BarSeries, OhlcvBar
from sentistock.sentiment import DailySentiment

from fixtures import make_coupled_fixture, trading_days


def bar(day, open_=10.0, high=None, low=None, close=None, volume=100.0):
    close = open_ + 0.5 if close is None else close
    high = max(open_, close) + 1 if high is None else high
    low = min(open_, close) - 1 if low is None else low
    return OhlcvBar(date=day, open=open_, high=high, low=low, close=close,
                    adj_close=close, volume=volume)


def series_of(opens, start=date(2020, 1, 1)):
    days = trading_days(len(opens), start)
    bars = []
    for day, o in zip(days, opens):
        if o is None:
            bars.append(OhlcvBar(date=day, open=None, high=12.0, low=9.0, close=10.0,
                                 adj_close=10.0, volume=100.0))
        else:
            bars.append(bar(day, open_=float(o)))
    return BarSeries(symbol="T", bars=tuple(bars))


def dlpm_dataset(features, targets, split_index):
    """An unscaled dlpm dataset over the given rows."""
    targets = np.asarray(targets, dtype=float)
    return FusedDataset(
        dates=tuple(trading_days(len(targets))),
        feature_names=DLPM_FEATURES,
        features=np.asarray(features, dtype=float),
        targets=targets,
        split_index=split_index,
    )


def neutral_sentiment(days):
    return [DailySentiment(d, 0.0, 0.0, 100.0, 0) for d in days]


def varied_sentiment(days, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for d in days:
        pos = float(rng.uniform(10, 60))
        neg = float(rng.uniform(5, 100 - pos))
        out.append(DailySentiment(d, pos, neg, 100.0 - pos - neg, 10))
    return out


class TestWindowSpec:
    @pytest.mark.parametrize("setting, refused", [
        ({"feature_mode": "xyz"}, "unknown feature mode 'xyz'"),
        ({"lookback": 0}, "lookback must be positive, got 0"),
        ({"split_fraction": 1.5}, "split_fraction must lie strictly between 0 and 1, got 1.5"),
        ({"split_fraction": 0.0}, "split_fraction must lie strictly between 0 and 1, got 0.0"),
        ({"split_fraction": float("nan")}, "split_fraction must lie strictly between 0 and 1, got nan"),
        ({"target_field": "xyz"}, "unknown target field 'xyz'"),
    ])
    def test_refusal_text(self, setting, refused):
        for build in (lambda: WindowSpec(**setting), lambda: replace(WindowSpec(), **setting)):
            with pytest.raises(PipelineError) as err:
                build()
            assert str(err.value) == refused

    def test_frozen(self):
        spec = WindowSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.lookback = 0

    def test_run_config_defaults_are_the_specs(self):
        config = RunConfig()
        defaults = dataclasses.asdict(WindowSpec())
        assert {name: getattr(config, name) for name in defaults} == defaults
        assert config.window_spec() == WindowSpec()


class TestImputeMean:
    """fuse fills a missing cell with its field's mean over the train-side bars."""

    def test_fills_with_training_mean(self):
        series = series_of([10.0, None, 20.0, 30.0, 40.0])  # 4 rows, 3 on the train side
        ds = fuse(series, [], WindowSpec(feature_mode="dlpm"))
        assert ds.features[:3, 0].tolist() == [10.0, 15.0, 20.0]

    def test_no_missing_is_identity(self):
        series = series_of([10.0, 11.0, 12.0])
        ds = fuse(series, [], WindowSpec(feature_mode="dlpm"))
        assert ds.features.tolist() == [[b.open, b.high, b.low, b.close] for b in series.bars[:2]]
        assert ds.targets.tolist() == [b.close for b in series.bars[1:]]

    def test_all_missing_in_train_range(self):
        days = trading_days(3)
        bars = tuple(
            OhlcvBar(date=d, open=10.0, high=11.0, low=9.0, close=10.5, adj_close=10.5,
                     volume=None)
            for d in days
        )
        with pytest.raises(PipelineError, match="has no present value in the training range"):
            fuse(BarSeries("T", bars), [], WindowSpec(feature_mode="dlpm"))

    @pytest.mark.parametrize("missing, refused", [
        ({(1, "volume"), (3, "high")}, "2020-01-02: non-finite volume inf"),
        ({(3, "volume"), (3, "high")}, "2020-01-06: non-finite high inf"),
    ])
    def test_overflowing_mean_refused_at_earliest_bar(self, missing, refused):
        # high's and volume's training means overflow to inf; the refusal
        # names the earliest bar they would fill, then the first such field.
        def value(k, field):
            if (k, field) in missing:
                return None
            return 1e308 if field in ("high", "volume") and k < 3 else 10.0

        bars = tuple(OhlcvBar(day, *[value(k, field) for field in NUMERIC_FIELDS])
                     for k, day in enumerate(trading_days(5)))
        with pytest.raises(PipelineError) as err:
            fuse(BarSeries("T", bars), [], WindowSpec(feature_mode="dlpm"))
        assert str(err.value) == refused

    def test_train_only_mean_excludes_test_rows(self):
        series = series_of([10.0, None, 50.0, 60.0])  # 3 rows, 2 on the train side
        ds = fuse(series, [], WindowSpec(feature_mode="dlpm"))
        # mean over the training range {10.0} only, not the later 50.0
        assert ds.features[1, 0] == 10.0

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data(), n_bars=st.integers(5, 16), mode=st.sampled_from(FEATURE_MODES),
           target_field=st.sampled_from(NUMERIC_FIELDS),
           split_fraction=st.floats(0.05, 0.95))
    def test_present_values_untouched_randomized(self, data, n_bars, mode, target_field, split_fraction):
        """fuse equals the per-row rule bit for bit, or both refuse alike."""
        days = trading_days(n_bars)
        columns = [data.draw(st.lists(VOLUME_CELL if field == "volume" else CELL,
                                      min_size=n_bars, max_size=n_bars))
                   for field in NUMERIC_FIELDS]
        if data.draw(st.integers(0, 3)) == 3:
            # Two near the float limit: the field's training mean overflows to inf.
            data.draw(st.sampled_from(columns))[:2] = [1.7e308, 1.7e308]
        bars = BarSeries("T", tuple(OhlcvBar(day, *cells) for day, *cells in zip(days, *columns)))
        sentiment = []
        if mode == "hisa":
            # About one trading day in twenty has no record.
            kept = data.draw(st.lists(st.integers(0, 19), min_size=n_bars, max_size=n_bars))
            sentiment = [data.draw(daily_sentiment(day)) for day, k in zip(days, kept) if k]
        spec = WindowSpec(feature_mode=mode, split_fraction=split_fraction, target_field=target_field)
        try:
            expected = fuse_by_rows(bars, sentiment, mode, target_field, split_fraction)
        except PipelineError as exc:
            with pytest.raises(PipelineError) as err:
                fuse(bars, sentiment, spec)
            assert str(err.value) == str(exc)
            return
        ds = fuse(bars, sentiment, spec)
        assert (ds.dates, ds.feature_names, ds.split_index) == expected[:3]
        for got, want in zip((ds.features, ds.targets), expected[3:]):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_integer_bars_give_contiguous_float64(self):
        bars = BarSeries("T", tuple(
            OhlcvBar(day, 10 + k, 12 + k, 9 + k, 11 + k, 11 + k, None if k == 1 else 100 * k)
            for k, day in enumerate(trading_days(5))))
        for target_field in ("close", "volume"):
            ds = fuse(bars, [], WindowSpec(feature_mode="dlpm", target_field=target_field))
            for got in (ds.features, ds.targets):
                assert got.dtype == np.float64 and got.flags.c_contiguous
        assert ds.features[:, 0].tolist() == [10.0, 11.0, 12.0, 13.0]
        assert ds.targets.tolist() == [(0 + 200) / 2, 200.0, 300.0, 400.0]


def cell(value):
    """A numeric cell: missing one time in eight, else a ``value``."""
    return st.one_of(*[value] * 7, st.none())


CELL = cell(st.one_of(st.floats(-1e3, 1e3), st.integers(-10**6, 10**6)))
VOLUME_CELL = cell(st.one_of(st.floats(0.0, 1e9), st.integers(0, 10**12)))


@st.composite
def daily_sentiment(draw, day):
    count = draw(st.integers(0, 5))
    if count == 0:
        return DailySentiment(day, 0.0, 0.0, 100.0, 0)
    pos = draw(st.floats(0.0, 100.0))
    neg = draw(st.floats(0.0, 100.0 - pos))
    return DailySentiment(day, pos, neg, 100.0 - pos - neg, count)


def fuse_by_rows(series, sentiment, mode, target_field, split_fraction):
    """fuse's rule, one bar at a time: (dates, feature names, split index,
    features, targets). Missing cells are filled in copies of the bars,
    which OhlcvBar validates again, then the rows are read one by one."""
    if mode not in FEATURE_MODES:
        raise PipelineError(f"unknown feature mode {mode!r}")
    if target_field not in NUMERIC_FIELDS:
        raise PipelineError(f"unknown target field {target_field!r}")
    if not 0.0 < split_fraction < 1.0:
        raise PipelineError(f"split_fraction must lie strictly between 0 and 1, got {split_fraction}")
    rows = len(series.bars) - 1
    train_rows = math.floor(split_fraction * rows)
    if train_rows < 1 or train_rows >= rows:
        raise PipelineError(
            f"split_fraction {split_fraction} on {max(rows, 0)} rows leaves an empty train or test side"
        )
    means = {}
    for field in NUMERIC_FIELDS:
        present = [getattr(b, field) for b in series.bars[:train_rows] if getattr(b, field) is not None]
        if not present:
            raise PipelineError(f"field {field!r} has no present value in the training range "
                                f"ending {series.bars[train_rows - 1].date}")
        means[field] = sum(present) / len(present)
    bars = [replace(b, **{f: means[f] for f in NUMERIC_FIELDS if getattr(b, f) is None}) for b in series.bars]

    by_date = {s.date: s for s in sentiment}
    names = HISA_FEATURES if mode == "hisa" else DLPM_FEATURES
    features = np.empty((rows, len(names)))
    targets = np.empty(rows)
    for t in range(rows):
        if mode == "hisa":
            day = by_date.get(bars[t].date)
            if day is None:
                raise PipelineError(f"no sentiment record for trading date {bars[t].date}")
            features[t] = (bars[t].open, day.pos_pct, day.neg_pct)
        else:
            features[t] = tuple(getattr(bars[t], c) for c in DLPM_FEATURES)
        targets[t] = getattr(bars[t + 1], target_field)
    return tuple(b.date for b in bars[:rows]), names, train_rows, features, targets


class TestScaler:
    """Fitting through scale_dataset, the replay through scale_dataset with a
    given scaler, the inverse through invert_target; the target is the last
    scaler column."""

    FEATURES = [[2.0, 20.0, 1.0, 5.0],
                [4.0, 10.0, 3.0, 5.5],
                [6.0, 30.0, 2.0, 6.0],
                [8.0, 0.0, 50.0, -7.0]]
    TARGETS = [7.0, 8.0, 9.0, 1000.0]

    def test_fit_extrema(self):
        scaler = scale_dataset(dlpm_dataset(self.FEATURES, self.TARGETS, split_index=3)).scaler
        assert scaler.mins == (2.0, 10.0, 1.0, 5.0, 7.0)
        assert scaler.maxs == (6.0, 30.0, 3.0, 6.0, 9.0)

    def test_fit_ignores_test_rows(self):
        scaler = scale_dataset(dlpm_dataset(self.FEATURES, self.TARGETS, split_index=2)).scaler
        assert scaler.maxs == (4.0, 20.0, 3.0, 5.5, 8.0)

    def test_constant_column_rejected(self):
        features = [[2.0, 5.0, 1.0, 5.0], [4.0, 5.0, 3.0, 6.0], [6.0, 9.0, 2.0, 7.0]]
        with pytest.raises(PipelineError, match="column 'high' has max 5.0 <= min 5.0"):
            scale_dataset(dlpm_dataset(features, [1.0, 2.0, 3.0], split_index=2))

    def test_transform_formula(self):
        scaled = scale_dataset(dlpm_dataset(self.FEATURES, self.TARGETS, split_index=3))
        assert scaled.features[:3, 0].tolist() == [0.0, 0.5, 1.0]
        assert scaled.targets[:3].tolist() == [0.0, 0.5, 1.0]

    def test_out_of_range_value_not_clipped(self):
        scaled = scale_dataset(dlpm_dataset(self.FEATURES, self.TARGETS, split_index=3))
        assert scaled.features[3, 0] == 1.5

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(2)
        targets = rng.uniform(-50, 50, size=40)
        scaled = scale_dataset(dlpm_dataset(rng.uniform(-50, 50, size=(40, 4)), targets, split_index=30))
        back = invert_target(scaled.targets, scaled.scaler)
        assert np.max(np.abs(back - targets)) < 1e-12

    def test_shape_mismatch(self):
        scaler = ScalerParams(("a", "b"), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(PipelineError, match="do not match dataset columns"):
            scale_dataset(dlpm_dataset(np.zeros((3, 4)), np.zeros(3), split_index=2), scaler)

    def test_scaler_independent_of_test_rows(self):
        rng = np.random.default_rng(3)
        features, targets = rng.uniform(0, 1, size=(30, 4)), rng.uniform(0, 1, size=30)
        scaled = scale_dataset(dlpm_dataset(features, targets, split_index=20))
        features[20:] = rng.uniform(100, 200, size=(10, 4))
        targets[20:] = rng.uniform(100, 200, size=10)
        replayed = scale_dataset(dlpm_dataset(features, targets, split_index=20), scaled.scaler)
        assert scale_dataset(dlpm_dataset(features, targets, split_index=20)).scaler == scaled.scaler
        assert np.array_equal(replayed.features[:20], scaled.features[:20])
        assert np.array_equal(replayed.targets[:20], scaled.targets[:20])


class TestFuse:
    def test_hisa_shape_and_targets(self):
        series = series_of([10, 11, 12, 13, 14])
        daily = varied_sentiment(series.dates())
        ds = fuse(series, daily, WindowSpec(feature_mode="hisa", target_field="close", split_fraction=0.75))
        assert len(ds.dates) == 4
        assert ds.features.shape == (4, 3)
        expected = [series.bars[t + 1].close for t in range(4)]
        assert ds.targets.tolist() == expected
        assert ds.feature_names == ("open", "pos_pct", "neg_pct")
        assert ds.scaler is None

    def test_split_index_three_quarter_fraction(self):
        series = series_of(list(range(10, 23)))  # 13 bars -> 12 rows
        ds = fuse(series, varied_sentiment(series.dates()), WindowSpec(split_fraction=0.75))
        assert len(ds.dates) == 12
        assert ds.split_index == 9

    def test_dlpm_ignores_sentiment(self):
        series = series_of([10, 11, 12, 13, 14])
        ds = fuse(series, [], WindowSpec(feature_mode="dlpm"))
        assert ds.features.shape == (4, 4)
        assert ds.feature_names == ("open", "high", "low", "close")

    def test_missing_sentiment_date_hisa_only(self):
        series = series_of([10, 11, 12, 13, 14])
        partial = varied_sentiment(series.dates()[:2])
        with pytest.raises(PipelineError, match="no sentiment record for trading date"):
            fuse(series, partial, WindowSpec(feature_mode="hisa"))
        fuse(series, partial, WindowSpec(feature_mode="dlpm"))  # no error

    def test_too_few_rows(self):
        with pytest.raises(PipelineError, match="on 1 rows leaves an empty train or test side"):
            fuse(series_of([10, 11]), [], WindowSpec(feature_mode="dlpm"))

    @pytest.mark.parametrize("n_bars, fraction, match", [
        pytest.param(2, 0.75, "leaves an empty train or test side", id="2-0.75-empty-side"),
        pytest.param(11, 0.05, "leaves an empty train or test side", id="11-0.05-empty-side"),
        pytest.param(11, 0.0, "must lie strictly between 0 and 1", id="11-0.0-out-of-range"),
        pytest.param(11, 1.5, "must lie strictly between 0 and 1", id="11-1.5-out-of-range"),
    ])
    def test_imputation_refuses_the_splits_fuse_refuses(self, n_bars, fraction, match):
        series = series_of(range(10, 10 + n_bars))
        with pytest.raises(PipelineError, match=match):
            fuse(series, [], WindowSpec(feature_mode="dlpm", split_fraction=fraction))

    def test_targets_identical_across_modes(self):
        # Even with sentiment held constant on every row, the two modes must
        # differ only through their feature sets, never the targets.
        series, _, _ = make_coupled_fixture(n_days=40)
        daily = neutral_sentiment(series.dates())
        hisa = fuse(series, daily, WindowSpec(feature_mode="hisa"))
        dlpm = fuse(series, daily, WindowSpec(feature_mode="dlpm"))
        assert hisa.features.shape[1] == 3 and dlpm.features.shape[1] == 4
        assert np.array_equal(hisa.targets, dlpm.targets)
        assert hisa.dates == dlpm.dates
        assert hisa.split_index == dlpm.split_index

    def test_missing_target_is_imputed(self):
        series = series_of([10, 11, 12, 13, 14])  # 4 rows, 3 on the train side
        bars = list(series.bars)
        bars[1] = replace(bars[1], close=None)
        ds = fuse(BarSeries("T", tuple(bars)), varied_sentiment(series.dates()), WindowSpec(feature_mode="hisa"))
        # row 0's target is bar 1's close: the mean of bars 0 and 2's closes
        assert ds.targets[0] == (bars[0].close + bars[2].close) / 2 == 11.5


class TestScaleDataset:
    def test_scaled_train_columns_in_unit_interval(self):
        series, _, _ = make_coupled_fixture(n_days=60)
        ds = fuse(series, varied_sentiment(series.dates()), WindowSpec(feature_mode="dlpm"))
        scaled = scale_dataset(ds)
        train = scaled.features[: scaled.split_index]
        assert train.min() >= 0.0 and train.max() <= 1.0
        assert scaled.scaler.feature_names == ("open", "high", "low", "close", "target")

    def test_constant_sentiment_cannot_scale(self):
        series, _, _ = make_coupled_fixture(n_days=40)
        ds = fuse(series, neutral_sentiment(series.dates()), WindowSpec(feature_mode="hisa"))
        with pytest.raises(PipelineError, match="column 'pos_pct' has max"):
            scale_dataset(ds)

    def test_double_scaling_rejected(self):
        series, _, _ = make_coupled_fixture(n_days=40)
        scaled = scale_dataset(fuse(series, varied_sentiment(series.dates()), WindowSpec(feature_mode="dlpm")))
        with pytest.raises(ValueError):
            scale_dataset(scaled)


class TestMakeWindows:
    def make(self, rows, split):
        rng = np.random.default_rng(0)
        return dlpm_dataset(rng.uniform(size=(rows, 4)), np.arange(rows, dtype=float) + 100.0, split)

    def test_hand_enumerated_counts(self):
        ds = self.make(10, 7)
        train, test = make_windows(ds, WindowSpec(lookback=3))
        assert len(train) == 4 and len(test) == 3
        assert train.lookback == test.lookback == 3

    def test_window_contents_and_labels(self):
        ds = self.make(10, 7)
        train, test = make_windows(ds, WindowSpec(lookback=3))
        # window j covers rows [j, j+3) and is labeled with targets[j+3]
        for j in range(4):
            assert np.array_equal(train.sequences[j], ds.features[j:j + 3])
            assert train.labels[j] == ds.targets[j + 3]
        for k in range(3):
            j = 4 + k
            assert np.array_equal(test.sequences[k], ds.features[j:j + 3])
            assert test.labels[k] == ds.targets[j + 3]

    def test_lookback_too_large(self):
        ds = self.make(10, 7)
        with pytest.raises(PipelineError, match="cannot support lookback 9"):
            make_windows(ds, WindowSpec(lookback=9))

    def test_lookback_one(self):
        ds = self.make(10, 7)
        train, test = make_windows(ds, WindowSpec(lookback=1))
        assert len(train) == 6  # split_index - 1
        assert train.sequences.shape == (6, 1, 4)
        assert train.lookback == test.lookback == 1

    def test_two_dimensional_sequences_refused(self):
        with pytest.raises(PipelineError, match="is not \\(samples, lookback, features\\)"):
            WindowedDataset(np.zeros((4, 3)), np.zeros(4))

    def test_test_windows_reach_into_train_history(self):
        ds = self.make(10, 7)
        _, test = make_windows(ds, WindowSpec(lookback=3))
        # first test window starts at row 4, inside the train region
        assert np.array_equal(test.sequences[0], ds.features[4:7])

    def test_train_labels_stay_left_of_split(self):
        ds = self.make(12, 8)
        train, test = make_windows(ds, WindowSpec(lookback=2))
        assert set(train.labels.tolist()) == {ds.targets[r] for r in range(2, 8)}
        assert set(test.labels.tolist()) == {ds.targets[r] for r in range(8, 12)}
