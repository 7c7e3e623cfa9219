import json
import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from sentistock.errors import EmptyInput, LengthMismatch, ZeroActual
from sentistock.evaluation import (
    EvalReport,
    VariantRecord,
    accuracy,
    daily_sentiment,
    mape,
    render_table,
    report_to_json,
    rmse,
    run_comparison,
)
from sentistock.features import fuse, impute_for_split, invert_target, make_windows, scale_dataset
from sentistock.lstm import TrainConfig, checkpoint_to_json, predict, train

from fixtures import make_coupled_fixture


class TestMape:
    def test_perfect_prediction(self):
        assert mape([100.0, 50.0], [100.0, 50.0]) == 0.0

    def test_hand_computed(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0, abs=1e-12)

    def test_zero_actual(self):
        with pytest.raises(ZeroActual):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mape([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mape([], [])


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([10.0], [10.0]) == 100.0

    def test_ten_percent_error(self):
        assert accuracy([100.0, 200.0], [110.0, 180.0]) == pytest.approx(90.0, abs=1e-12)

    def test_average_of_reference_accuracies(self):
        # Reference check on the averaging rule: mean(95.41, 97.18, 92.38) -> 94.99.
        mean = (95.41 + 97.18 + 92.38) / 3
        assert f"{mean:.2f}" == "94.99"

    def test_accuracy_plus_mape_is_100_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            a = rng.uniform(1, 100, size=n)
            p = a + rng.normal(0, 10, size=n)
            m = mape(a, p)
            acc = accuracy(a, p)
            assert acc == 100.0 - m
            assert acc + m == 100.0


class TestRmse:
    def test_identical(self):
        assert rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_hand_computed(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_single_element(self):
        assert rmse([1.0], [3.0]) == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(1, 10, size=20)
        p = rng.uniform(1, 10, size=20)
        perm = rng.permutation(20)
        assert rmse(a, p) == pytest.approx(rmse(a[perm], p[perm]), abs=1e-12)
        assert mape(a, p) == pytest.approx(mape(a[perm], p[perm]), abs=1e-12)


def record(variant, epochs, acc):
    return VariantRecord(
        variant=variant, epochs=epochs, accuracy_pct=acc, mape_pct=100.0 - acc,
        rmse=1.0, dates=(date(2020, 1, 6),), real=(100.0,), predicted=(99.0,),
    )


REFERENCE_ACCURACIES = {
    ("dlpm", 5): 91.59, ("hisa", 5): 95.41,
    ("dlpm", 10): 94.56, ("hisa", 10): 97.18,
    ("dlpm", 15): 83.46, ("hisa", 15): 92.38,
}


def reference_report() -> EvalReport:
    records = [
        record(variant, epochs, acc)
        for (variant, epochs), acc in sorted(REFERENCE_ACCURACIES.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]
    return EvalReport.from_records(records)


class TestEvalReport:
    def test_averages_are_arithmetic_means(self):
        report = reference_report()
        assert report.average_for("dlpm") == pytest.approx((91.59 + 94.56 + 83.46) / 3, abs=1e-12)
        assert report.average_for("hisa") == pytest.approx((95.41 + 97.18 + 92.38) / 3, abs=1e-12)

    def test_render_has_eight_data_rows(self):
        table = render_table(reference_report())
        lines = [ln for ln in table.strip().splitlines()]
        # header + separator + 6 variant-epoch rows + 2 average rows
        assert len(lines) == 10
        assert sum(ln.startswith("Average") for ln in lines) == 2

    def test_render_reproduces_reference_averages(self):
        table = render_table(reference_report())
        assert "89.87%" in table
        assert "94.99%" in table

    def test_json_roundtrip(self):
        report = reference_report()
        doc = json.loads(report_to_json(report))
        assert doc["version"] == 1
        records = tuple(
            VariantRecord(**{
                **r,
                "dates": tuple(date.fromisoformat(d) for d in r["dates"]),
                "real": tuple(r["real"]),
                "predicted": tuple(r["predicted"]),
            })
            for r in doc["records"]
        )
        again = EvalReport(records=records, averages=tuple(doc["averages"].items()))
        assert again == report


@pytest.fixture(scope="module")
def small_inputs():
    return make_coupled_fixture(n_days=70, seed=11)


@pytest.fixture(scope="module")
def small_config():
    return TrainConfig(epochs=2, learning_rate=0.02, batch_size=16, seed=5,
                       grad_clip_norm=5.0, optimizer="adam", hidden_size=8)


def separate_runs(series, tweets, lexicon, epoch_sizes, config, lookback):
    """The comparison with one training run from scratch per (epochs, variant).

    Returns the serialized checkpoints as (variant, epochs, json) in record
    order, and the serialized report.
    """
    series = impute_for_split(series, 0.75)
    daily, _ = daily_sentiment(tweets, series, lexicon)
    checkpoints, records = [], []
    for epochs in epoch_sizes:
        for variant in ("dlpm", "hisa"):
            dataset = fuse(series, daily, mode=variant)
            scaled = scale_dataset(dataset)
            train_windows, test_windows = make_windows(scaled, lookback)
            checkpoint = train(train_windows, replace(config, epochs=epochs),
                               scaler=scaled.scaler, feature_mode=variant)
            checkpoints.append((variant, epochs, checkpoint_to_json(checkpoint)))
            predicted = predict(checkpoint, test_windows)
            real = invert_target(test_windows.labels, scaled.scaler)
            m = mape(real, predicted)
            records.append(VariantRecord(
                variant=variant, epochs=epochs, accuracy_pct=100.0 - m, mape_pct=m,
                rmse=rmse(real, predicted), dates=dataset.dates[dataset.split_index:],
                real=tuple(real.tolist()), predicted=tuple(predicted.tolist()),
            ))
    return checkpoints, report_to_json(EvalReport.from_records(records))


class TestRunComparison:
    def test_structure(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [2, 3], small_config, lookback=6)
        assert len(report.records) == 4
        assert [r.variant for r in report.records] == ["dlpm", "hisa", "dlpm", "hisa"]
        assert [r.epochs for r in report.records] == [2, 2, 3, 3]
        assert len(report.averages) == 2

    def test_real_series_shared_across_variants(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [2], small_config, lookback=6)
        dlpm, hisa = report.records
        assert dlpm.dates == hisa.dates
        assert dlpm.real == hisa.real

    def test_real_series_is_raw_targets(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [2], small_config, lookback=6)
        raw_close = [b.close for b in series.bars]
        rec = report.records[0]
        rows = len(series.bars) - 1
        split = int(0.75 * rows)
        expected = raw_close[split + 1:]
        assert np.max(np.abs(np.array(rec.real) - np.array(expected))) < 1e-9

    def test_deterministic_reports(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        a = run_comparison(series, tweets, lexicon, [2], small_config, lookback=6)
        b = run_comparison(series, tweets, lexicon, [2], small_config, lookback=6)
        assert report_to_json(a) == report_to_json(b)

    def test_accuracy_identity_on_records(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [2], small_config, lookback=6)
        for rec in report.records:
            assert rec.accuracy_pct == 100.0 - rec.mape_pct

    def test_checkpoint_sink_called_per_run(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        seen = []
        run_comparison(series, tweets, lexicon, [2, 3], small_config, lookback=6,
                       checkpoint_sink=lambda v, e, cp: seen.append((v, e, cp.config.epochs)))
        assert seen == [("dlpm", 2, 2), ("hisa", 2, 2), ("dlpm", 3, 3), ("hisa", 3, 3)]

    @pytest.mark.parametrize("epoch_sizes", [[3, 1, 2], [2, 2]])
    def test_snapshots_equal_separate_runs(self, epoch_sizes, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        seen = []
        report = run_comparison(series, tweets, lexicon, epoch_sizes, small_config, lookback=6,
                                checkpoint_sink=lambda v, e, cp: seen.append((v, e, checkpoint_to_json(cp))))
        expected_checkpoints, expected_report = separate_runs(
            series, tweets, lexicon, epoch_sizes, small_config, lookback=6)
        assert seen == expected_checkpoints
        assert report_to_json(report) == expected_report
        assert [r.epochs for r in report.records] == [e for e in epoch_sizes for _ in ("dlpm", "hisa")]

    def test_empty_epoch_sizes_rejected(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        with pytest.raises(ValueError):
            run_comparison(series, tweets, lexicon, [], small_config)
