from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from sentistock.errors import PipelineError
from sentistock.features import (
    DLPM_FEATURES,
    FusedDataset,
    ScalerParams,
    WindowedDataset,
    fuse,
    invert_target,
    make_windows,
    scale_dataset,
)
from sentistock.market_data import BarSeries, OhlcvBar
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


class TestImputeMean:
    """fuse fills a missing cell with its field's mean over the train-side bars."""

    def test_fills_with_training_mean(self):
        series = series_of([10.0, None, 20.0, 30.0, 40.0])  # 4 rows, 3 on the train side
        ds = fuse(series, [], mode="dlpm")
        assert ds.features[:3, 0].tolist() == [10.0, 15.0, 20.0]

    def test_no_missing_is_identity(self):
        series = series_of([10.0, 11.0, 12.0])
        ds = fuse(series, [], mode="dlpm")
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
            fuse(BarSeries("T", bars), [], mode="dlpm")

    def test_train_only_mean_excludes_test_rows(self):
        series = series_of([10.0, None, 50.0, 60.0])  # 3 rows, 2 on the train side
        ds = fuse(series, [], mode="dlpm")
        # mean over the training range {10.0} only, not the later 50.0
        assert ds.features[1, 0] == 10.0

    def test_present_values_untouched_randomized(self):
        rng = np.random.default_rng(1)
        days = trading_days(20)
        bars = []
        for d in days:
            o = None if rng.uniform() < 0.3 else float(rng.uniform(10, 20))
            bars.append(OhlcvBar(date=d, open=o, high=25.0, low=5.0, close=15.0,
                                 adj_close=15.0, volume=float(rng.integers(1, 100))))
        series = BarSeries("T", tuple(bars))
        ds = fuse(series, [], mode="dlpm", split_fraction=0.55)  # floor(0.55 * 19) = 10
        present = [b.open for b in bars[:10] if b.open is not None]
        for before, row in zip(series.bars, ds.features):
            if before.open is not None:
                assert row[0] == before.open
            else:
                assert row[0] == sum(present) / len(present)
            assert row[3] == before.close


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
        ds = fuse(series, daily, mode="hisa", target_field="close", split_fraction=0.75)
        assert len(ds.dates) == 4
        assert ds.features.shape == (4, 3)
        expected = [series.bars[t + 1].close for t in range(4)]
        assert ds.targets.tolist() == expected
        assert ds.feature_names == ("open", "pos_pct", "neg_pct")
        assert ds.scaler is None

    def test_split_index_three_quarter_fraction(self):
        series = series_of(list(range(10, 23)))  # 13 bars -> 12 rows
        ds = fuse(series, varied_sentiment(series.dates()), split_fraction=0.75)
        assert len(ds.dates) == 12
        assert ds.split_index == 9

    def test_dlpm_ignores_sentiment(self):
        series = series_of([10, 11, 12, 13, 14])
        ds = fuse(series, [], mode="dlpm")
        assert ds.features.shape == (4, 4)
        assert ds.feature_names == ("open", "high", "low", "close")

    def test_missing_sentiment_date_hisa_only(self):
        series = series_of([10, 11, 12, 13, 14])
        partial = varied_sentiment(series.dates()[:2])
        with pytest.raises(PipelineError, match="no sentiment record for trading date"):
            fuse(series, partial, mode="hisa")
        fuse(series, partial, mode="dlpm")  # no error

    def test_too_few_rows(self):
        with pytest.raises(PipelineError, match="on 1 rows leaves an empty train or test side"):
            fuse(series_of([10, 11]), [], mode="dlpm")

    @pytest.mark.parametrize("n_bars, fraction, match", [
        pytest.param(2, 0.75, "leaves an empty train or test side", id="2-0.75-empty-side"),
        pytest.param(11, 0.05, "leaves an empty train or test side", id="11-0.05-empty-side"),
        pytest.param(11, 0.0, "must lie strictly between 0 and 1", id="11-0.0-out-of-range"),
        pytest.param(11, 1.5, "must lie strictly between 0 and 1", id="11-1.5-out-of-range"),
    ])
    def test_imputation_refuses_the_splits_fuse_refuses(self, n_bars, fraction, match):
        series = series_of(range(10, 10 + n_bars))
        with pytest.raises(PipelineError, match=match):
            fuse(series, [], mode="dlpm", split_fraction=fraction)

    def test_targets_identical_across_modes(self):
        # Even with sentiment held constant on every row, the two modes must
        # differ only through their feature sets, never the targets.
        series, _, _ = make_coupled_fixture(n_days=40)
        daily = neutral_sentiment(series.dates())
        hisa = fuse(series, daily, mode="hisa")
        dlpm = fuse(series, daily, mode="dlpm")
        assert hisa.features.shape[1] == 3 and dlpm.features.shape[1] == 4
        assert np.array_equal(hisa.targets, dlpm.targets)
        assert hisa.dates == dlpm.dates
        assert hisa.split_index == dlpm.split_index

    def test_missing_target_is_imputed(self):
        series = series_of([10, 11, 12, 13, 14])  # 4 rows, 3 on the train side
        bars = list(series.bars)
        bars[1] = replace(bars[1], close=None)
        ds = fuse(BarSeries("T", tuple(bars)), varied_sentiment(series.dates()), mode="hisa")
        # row 0's target is bar 1's close: the mean of bars 0 and 2's closes
        assert ds.targets[0] == (bars[0].close + bars[2].close) / 2 == 11.5


class TestScaleDataset:
    def test_scaled_train_columns_in_unit_interval(self):
        series, _, _ = make_coupled_fixture(n_days=60)
        ds = fuse(series, varied_sentiment(series.dates()), mode="dlpm")
        scaled = scale_dataset(ds)
        train = scaled.features[: scaled.split_index]
        assert train.min() >= 0.0 and train.max() <= 1.0
        assert scaled.scaler.feature_names == ("open", "high", "low", "close", "target")

    def test_constant_sentiment_cannot_scale(self):
        series, _, _ = make_coupled_fixture(n_days=40)
        ds = fuse(series, neutral_sentiment(series.dates()), mode="hisa")
        with pytest.raises(PipelineError, match="column 'pos_pct' has max"):
            scale_dataset(ds)

    def test_double_scaling_rejected(self):
        series, _, _ = make_coupled_fixture(n_days=40)
        scaled = scale_dataset(fuse(series, varied_sentiment(series.dates()), mode="dlpm"))
        with pytest.raises(ValueError):
            scale_dataset(scaled)


class TestMakeWindows:
    def make(self, rows, split):
        rng = np.random.default_rng(0)
        return dlpm_dataset(rng.uniform(size=(rows, 4)), np.arange(rows, dtype=float) + 100.0, split)

    def test_hand_enumerated_counts(self):
        ds = self.make(10, 7)
        train, test = make_windows(ds, lookback=3)
        assert len(train) == 4 and len(test) == 3
        assert train.lookback == test.lookback == 3

    def test_window_contents_and_labels(self):
        ds = self.make(10, 7)
        train, test = make_windows(ds, lookback=3)
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
            make_windows(ds, lookback=9)

    def test_lookback_one(self):
        ds = self.make(10, 7)
        train, test = make_windows(ds, lookback=1)
        assert len(train) == 6  # split_index - 1
        assert train.sequences.shape == (6, 1, 4)
        assert train.lookback == test.lookback == 1

    def test_two_dimensional_sequences_refused(self):
        with pytest.raises(PipelineError, match="is not \\(samples, lookback, features\\)"):
            WindowedDataset(np.zeros((4, 3)), np.zeros(4))

    def test_test_windows_reach_into_train_history(self):
        ds = self.make(10, 7)
        _, test = make_windows(ds, lookback=3)
        # first test window starts at row 4, inside the train region
        assert np.array_equal(test.sequences[0], ds.features[4:7])

    def test_train_labels_stay_left_of_split(self):
        ds = self.make(12, 8)
        train, test = make_windows(ds, lookback=2)
        assert set(train.labels.tolist()) == {ds.targets[r] for r in range(2, 8)}
        assert set(test.labels.tolist()) == {ds.targets[r] for r in range(8, 12)}
