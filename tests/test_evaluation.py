import json
import math
import os
import pickle
import signal
import threading
import time
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from sentistock import evaluation
from sentistock.cli import main
from sentistock.errors import EmptyInput, NonFiniteLoss, PipelineError
from sentistock.evaluation import (
    EvalReport,
    VariantRecord,
    daily_sentiment,
    mape,
    render_table,
    report_to_json,
    rmse,
    run_comparison,
    _fork_pays,
    _run_jobs,
)
from sentistock.features import fuse, invert_target, make_windows, scale_dataset
from sentistock.lstm import TrainConfig, checkpoint_from_json, checkpoint_to_json, predict, train

from fixtures import make_coupled_fixture, write_cli_fixture


class TestMape:
    def test_perfect_prediction(self):
        assert mape([100.0, 50.0], [100.0, 50.0]) == 0.0

    def test_hand_computed(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0, abs=1e-12)

    def test_zero_actual(self):
        with pytest.raises(PipelineError, match="actual series contains a zero"):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(PipelineError, match="series shapes differ"):
            mape([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mape([], [])


class TestAccuracy:
    def test_average_of_reference_accuracies(self):
        # Reference check on the averaging rule: mean(95.41, 97.18, 92.38) -> 94.99.
        mean = (95.41 + 97.18 + 92.38) / 3
        assert f"{mean:.2f}" == "94.99"


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
    return EvalReport(tuple(records))


class TestEvalReport:
    def test_averages_are_arithmetic_means(self):
        report = reference_report()
        assert list(report.averages) == ["dlpm", "hisa"]  # record order
        assert report.averages["dlpm"] == pytest.approx((91.59 + 94.56 + 83.46) / 3, abs=1e-12)
        assert report.averages["hisa"] == pytest.approx((95.41 + 97.18 + 92.38) / 3, abs=1e-12)

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
        again = EvalReport(records=records)
        assert again == report and again.averages == doc["averages"]


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
    return checkpoints, report_to_json(EvalReport(tuple(records)))


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
            assert rec.accuracy_pct + rec.mape_pct == 100.0

    def test_checkpoint_sink_called_per_run(self, monkeypatch, small_inputs, small_config):
        # The sink receives each checkpoint's document text, in record order,
        # on the forked path and on the inline one.
        series, tweets, lexicon = small_inputs
        for forked in (True, False):
            monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: forked)
            seen = []
            run_comparison(series, tweets, lexicon, [2, 3], small_config, lookback=6,
                           checkpoint_sink=lambda v, e, doc: seen.append((v, e, doc)))
            assert [(v, e) for v, e, _ in seen] == [("dlpm", 2), ("hisa", 2), ("dlpm", 3), ("hisa", 3)]
            for variant, epochs, doc in seen:
                assert isinstance(doc, str)
                loaded = checkpoint_from_json(doc)
                assert (loaded.feature_mode, loaded.config.epochs) == (variant, epochs)

    @pytest.mark.parametrize("epoch_sizes", [[3, 1, 2], [2]])
    def test_snapshots_equal_separate_runs(self, epoch_sizes, monkeypatch, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        expected_checkpoints, expected_report = separate_runs(
            series, tweets, lexicon, epoch_sizes, small_config, lookback=6)
        for forked in (True, False):
            monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: forked)
            seen = []
            report = run_comparison(series, tweets, lexicon, epoch_sizes, small_config, lookback=6,
                                    checkpoint_sink=lambda v, e, doc: seen.append((v, e, doc)))
            assert seen == expected_checkpoints, forked
            assert report_to_json(report) == expected_report, forked
            assert [r.epochs for r in report.records] == [e for e in epoch_sizes for _ in ("dlpm", "hisa")]
            assert_no_child_left()

    def test_no_document_encoded_without_sink(self, either_path, monkeypatch, small_inputs, small_config):
        # A forked child inherits the patch and sends its error back.
        def refuse(checkpoint):
            raise AssertionError("a checkpoint was encoded with no sink to take it")

        monkeypatch.setattr(evaluation, "checkpoint_to_json", refuse)
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [1, 2], small_config, lookback=6)
        assert len(report.records) == 4
        assert_no_child_left()

    def test_report_json_equals_json_dumps_reference(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [1, 2], small_config, lookback=6)
        # The document as json.dumps wrote it before the shared writer.
        doc = {
            "version": 1,
            "records": [
                {
                    "variant": r.variant, "epochs": r.epochs, "accuracy_pct": r.accuracy_pct,
                    "mape_pct": r.mape_pct, "rmse": r.rmse, "dates": [d.isoformat() for d in r.dates],
                    "real": list(r.real), "predicted": list(r.predicted),
                }
                for r in report.records
            ],
            "averages": report.averages,
        }
        assert report_to_json(report) == json.dumps(doc, sort_keys=True, indent=2)

    def test_empty_epoch_sizes_rejected(self, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        with pytest.raises(PipelineError, match="epoch_sizes must be one or more positive integers"):
            run_comparison(series, tweets, lexicon, [], small_config)

    def test_repeated_epoch_sizes_rejected(self, small_inputs, small_config):
        # A repeat would train once but record, average and write each
        # checkpoint of that size twice.
        series, tweets, lexicon = small_inputs
        with pytest.raises(PipelineError, match=r"each once, got \[2, 1, 2\]"):
            run_comparison(series, tweets, lexicon, [2, 1, 2], small_config)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[True, False], ids=["forked", "inline"])
def either_path(request, monkeypatch):
    """Run the comparison on the forked path or the inline one."""
    monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: request.param)


REAL_TRAIN = evaluation.train


def train_where(monkeypatch, **behaviours):
    """Patch ``evaluation.train`` so each named mode runs ``behaviours[mode]``
    on its config first; a forked child inherits the patch."""

    def patched(windows, config, **kwargs):
        behaviour = behaviours.get(kwargs["feature_mode"])
        if behaviour is not None:
            config = behaviour(config)
        return REAL_TRAIN(windows, config, **kwargs)

    monkeypatch.setattr(evaluation, "train", patched)


def diverge(config):
    # An absurd rate overflows the squared error to inf, as in test_lstm.
    return replace(config, learning_rate=1e200, optimizer="sgd", grad_clip_norm=1e300)


TEST_PID = os.getpid()


def killed(config):
    if os.getpid() == TEST_PID:
        raise AssertionError("hisa trained in the test process, not in a child")
    os.kill(os.getpid(), signal.SIGKILL)


def stalled(config):
    time.sleep(60)
    return config


def comparison_error(inputs, config):
    """The error the comparison raises; its sink must not have been called."""
    series, tweets, lexicon = inputs
    written = []
    with pytest.raises(PipelineError) as err:
        run_comparison(series, tweets, lexicon, [2, 3], config, lookback=6,
                       checkpoint_sink=lambda *args: written.append(args))
    assert written == []
    return err.value


class TestForkedTraining:
    """``run_comparison`` trains hisa in a forked child when ``_fork_pays``;
    the inline path is the reference for every outcome."""

    def test_normal_return_leaves_no_child(self, either_path, small_inputs, small_config):
        series, tweets, lexicon = small_inputs
        report = run_comparison(series, tweets, lexicon, [2], small_config, lookback=6)
        assert len(report.records) == 2
        assert_no_child_left()

    def test_only_hisa_diverges(self, monkeypatch, small_inputs, small_config):
        train_where(monkeypatch, hisa=diverge)
        errors = []
        for forked in (True, False):
            monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: forked)
            errors.append(comparison_error(small_inputs, small_config))
            assert_no_child_left()
        child, inline = errors
        assert type(child) is type(inline) is NonFiniteLoss
        assert (str(child), child.epoch) == (str(inline), inline.epoch)

    def test_dlpm_error_wins_while_child_runs(self, monkeypatch, small_inputs, small_config):
        monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: False)
        train_where(monkeypatch, dlpm=diverge)
        inline = comparison_error(small_inputs, small_config)

        monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: True)
        train_where(monkeypatch, dlpm=diverge, hisa=stalled)
        start = time.monotonic()
        child = comparison_error(small_inputs, small_config)
        # The stalled child is killed, not waited for.
        assert time.monotonic() - start < 30
        assert_no_child_left()
        assert type(child) is NonFiniteLoss
        assert (str(child), child.epoch) == (str(inline), inline.epoch)

    def test_killed_child_names_mode_and_status(self, monkeypatch, small_inputs, small_config):
        monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: True)
        train_where(monkeypatch, hisa=killed)
        err = comparison_error(small_inputs, small_config)
        assert type(err) is PipelineError
        assert "hisa" in str(err) and f"wait status {signal.SIGKILL.value}" in str(err)
        assert_no_child_left()

    def test_cli_exits_3_without_checkpoint_when_hisa_diverges(self, either_path, monkeypatch, tmp_path, capsys):
        config = write_cli_fixture(tmp_path, n_days=60)
        train_where(monkeypatch, hisa=diverge)
        assert main(["compare", "--config", str(config), "--epoch-sizes", "2,3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: training loss became non-finite") and err.count("\n") == 1
        assert not list((tmp_path / "out").glob("checkpoint_*"))
        assert_no_child_left()

    def test_cli_exits_2_when_child_is_killed(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: True)
        config = write_cli_fixture(tmp_path, n_days=60)
        train_where(monkeypatch, hisa=killed)
        assert main(["compare", "--config", str(config), "--epoch-sizes", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hisa" in err and err.count("\n") == 1
        assert not list((tmp_path / "out").glob("checkpoint_*"))
        assert_no_child_left()

    def test_artifacts_equal_inline(self, monkeypatch, tmp_path):
        # Hidden 32: the child's pickled documents outgrow a 64 KB pipe buffer.
        config = write_cli_fixture(tmp_path, n_days=70, hidden_size=32)
        outs = {}
        for forked in (True, False):
            monkeypatch.setattr(evaluation, "_fork_pays", lambda *sizes: forked)
            outs[forked] = tmp_path / f"forked{forked}"
            assert main(["compare", "--config", str(config), "--epoch-sizes", "1,2,3",
                         "--out", str(outs[forked])]) == 0
            assert_no_child_left()
        names = sorted(p.name for p in outs[False].iterdir() if p.name != "resolved_config.ini")
        assert "report.json" in names and len([n for n in names if n.startswith("checkpoint_")]) == 6
        assert names == sorted(p.name for p in outs[True].iterdir() if p.name != "resolved_config.ini")
        for name in names:
            assert (outs[True] / name).read_bytes() == (outs[False] / name).read_bytes(), name
        # The child sends its documents' text through the pipe.
        hisa = {e: (outs[True] / f"checkpoint_hisa_epochs{e}.json").read_text(encoding="utf-8") for e in (1, 2, 3)}
        assert len(pickle.dumps(hisa, protocol=pickle.HIGHEST_PROTOCOL)) > 65536


class TestRunJobs:
    """``_run_jobs`` knows nothing of the modes: any names, in order, and on
    the forked path every name after the first runs in one child."""

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_results_in_name_order(self, fork):
        assert _run_jobs(lambda name: name * 2, ("a", "b", "c"), fork) == ["aa", "bb", "cc"]
        assert_no_child_left()

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_first_failing_job_raises_and_later_jobs_never_run(self, fork, tmp_path):
        ran = tmp_path / "ran"

        def job(name):
            with open(ran, "a") as fh:
                fh.write(name)
            if name in ("b", "c"):
                raise KeyError(name)
            return name

        with pytest.raises(KeyError, match="b"):
            _run_jobs(job, ("a", "b", "c", "d"), fork)
        assert sorted(ran.read_text()) == ["a", "b"]
        assert_no_child_left()

    def test_killed_child_names_its_jobs(self):
        def job(name):
            if os.getpid() != TEST_PID:
                os.kill(os.getpid(), signal.SIGKILL)
            return name

        with pytest.raises(PipelineError, match=rf"training b, c in a child .* \(wait status {signal.SIGKILL.value}\)"):
            _run_jobs(job, ("a", "b", "c"), True)
        assert_no_child_left()


class TestForkGate:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_forks_at_paper_sizes(self):
        assert _fork_pays(4, 32, 16)

    def test_inline_when_blas_would_thread(self):
        assert not _fork_pays(4, 128, 64)

    def test_inline_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not _fork_pays(4, 32, 16)

    def test_inline_with_another_thread(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not _fork_pays(4, 32, 16)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
