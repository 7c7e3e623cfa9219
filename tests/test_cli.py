import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sentistock.cli as cli
import sentistock.evaluation as evaluation
import sentistock.lstm as lstm
from sentistock.cli import main
from sentistock.evaluation import EvalReport

from fixtures import write_cli_fixture


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def fixture_config(tmp_path):
    return write_cli_fixture(tmp_path, n_days=60, seed=7)


class TestIngest:
    def test_happy_path(self, fixture_config, tmp_path, capsys):
        assert run(["ingest", "--config", fixture_config]) == 0
        out = capsys.readouterr().out
        assert "bars: 60 rows" in out
        assert "tweets:" in out and "skipped" in out
        assert (tmp_path / "out" / "bars.json").is_file()
        assert (tmp_path / "out" / "tweets_valid.jsonl").is_file()
        assert (tmp_path / "out" / "resolved_config.ini").is_file()

    def test_missing_input_file_names_path(self, fixture_config, tmp_path, capsys):
        (tmp_path / "prices.csv").unlink()
        assert run(["ingest", "--config", fixture_config]) == 2
        err = capsys.readouterr().err
        assert "prices.csv" in err

    def test_duplicate_date_rejected(self, fixture_config, tmp_path, capsys):
        csv_path = tmp_path / "prices.csv"
        lines = csv_path.read_text().splitlines()
        lines.append(lines[-1])  # repeat the final day
        csv_path.write_text("\n".join(lines) + "\n")
        assert run(["ingest", "--config", fixture_config]) == 2
        assert "duplicate date" in capsys.readouterr().err

    def test_skipped_lines_counted(self, fixture_config, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(tweets.read_text() + "not json\n")
        assert run(["ingest", "--config", fixture_config]) == 0
        assert "1 skipped" in capsys.readouterr().out


class TestSentiment:
    def test_rows_match_trading_days(self, fixture_config, tmp_path, capsys):
        assert run(["sentiment", "--config", fixture_config]) == 0
        lines = (tmp_path / "out" / "daily_sentiment.csv").read_text().strip().splitlines()
        assert lines[0] == "date,pos_pct,neg_pct,neu_pct,tweet_count"
        assert len(lines) == 61  # header + one row per trading day
        for line in lines[1:]:
            _, pos, neg, neu, _ = line.split(",")
            assert abs(float(pos) + float(neg) + float(neu) - 100.0) <= 1e-9

    def test_empty_corpus_is_all_neutral(self, fixture_config, tmp_path):
        (tmp_path / "tweets.jsonl").write_text("")
        assert run(["sentiment", "--config", fixture_config]) == 0
        lines = (tmp_path / "out" / "daily_sentiment.csv").read_text().strip().splitlines()
        assert all(line.endswith(",0.0,0.0,100.0,0") for line in lines[1:])

    def test_malformed_lexicon(self, fixture_config, tmp_path):
        (tmp_path / "lexicon.tsv").write_text("good\t2.5\t1.0\tterm\n")
        assert run(["sentiment", "--config", fixture_config]) == 2

    def test_skipped_lines_and_empty_days_printed(self, fixture_config, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        kept = [line for line in tweets.read_text().splitlines()
                if '"2020-01-01T' not in line and '"2020-01-02T' not in line]
        tweets.write_text("\n".join(kept) + "\nnot json\n")
        assert run(["sentiment", "--config", fixture_config]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"tweets: {len(kept)} valid, 1 skipped"
        assert out[1] == "daily sentiment: 60 trading days, 2 with no tweets, 0 tweets past final session dropped"

    def test_empty_corpus_counts_printed(self, fixture_config, tmp_path, capsys):
        (tmp_path / "tweets.jsonl").write_text("not json\n\n")
        assert run(["sentiment", "--config", fixture_config]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "tweets: no valid tweet lines found (1 skipped)"
        assert out[1] == "daily sentiment: 60 trading days, 60 with no tweets, 0 tweets past final session dropped"

    def test_lexicon_word_tokenize_splits_exits_2(self, fixture_config, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(lexicon.read_text() + "profit-taking\t-0.3\t1.0\tterm\n")
        capsys.readouterr()
        assert run(["sentiment", "--config", fixture_config]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: line 10: bad lexicon term 'profit-taking' (tokenize never yields it: letters and digits only)"
        ]


class TestTrain:
    def test_checkpoint_written(self, fixture_config, tmp_path, capsys):
        assert run(["train", "--config", fixture_config]) == 0
        assert (tmp_path / "out" / "checkpoint.json").is_file()
        assert "final training loss" in capsys.readouterr().out

    def test_identical_runs_identical_digests(self, fixture_config, tmp_path):
        assert run(["train", "--config", fixture_config, "--out", tmp_path / "a"]) == 0
        assert run(["train", "--config", fixture_config, "--out", tmp_path / "b"]) == 0
        a = (tmp_path / "a" / "checkpoint.json").read_bytes()
        b = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert a == b

    def test_dlpm_mode_needs_no_tweets(self, fixture_config, tmp_path):
        (tmp_path / "tweets.jsonl").unlink()
        code = run(["train", "--config", fixture_config, "--feature-mode", "dlpm"])
        assert code == 0

    def test_divergence_exits_3(self, tmp_path, capsys):
        config = write_cli_fixture(tmp_path, n_days=60, seed=7,
                                   learning_rate=1e200, optimizer="sgd",
                                   grad_clip_norm=1e300, batch_size=8)
        capsys.readouterr()
        assert run(["train", "--config", config]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training loss became non-finite"), err


class TestPredict:
    def test_predictions_csv(self, fixture_config, tmp_path):
        assert run(["train", "--config", fixture_config]) == 0
        code = run(["predict", "--config", fixture_config,
                    "--checkpoint", tmp_path / "out" / "checkpoint.json"])
        assert code == 0
        lines = (tmp_path / "out" / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "date,real,predicted"
        rows = 59  # 60 bars -> 59 feature rows
        split = int(0.75 * rows)
        assert len(lines) - 1 == rows - split

    def test_indented_checkpoint_on_disk(self, fixture_config, tmp_path):
        # Checkpoints were once written as json.dumps(doc, sort_keys=True,
        # indent=2); one left on disk loads, predicts the same bytes as the
        # compact file train writes now, and re-serializes to that file.
        assert run(["train", "--config", fixture_config]) == 0
        compact = tmp_path / "out" / "checkpoint.json"
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(compact.read_text()), sort_keys=True, indent=2))
        predictions = []
        for path in (compact, indented):
            assert run(["predict", "--config", fixture_config, "--checkpoint", path, "--out", tmp_path / path.stem]) == 0
            predictions.append((tmp_path / path.stem / "predictions.csv").read_bytes())
        assert predictions[0] == predictions[1]
        assert lstm.checkpoint_to_json(lstm.load_checkpoint(indented)) == compact.read_text()

    def test_feature_mode_mismatch_exits_2(self, fixture_config, tmp_path, capsys):
        assert run(["train", "--config", fixture_config]) == 0  # hisa checkpoint
        code = run(["predict", "--config", fixture_config, "--feature-mode", "dlpm",
                    "--checkpoint", tmp_path / "out" / "checkpoint.json"])
        assert code == 2
        assert "scaler columns" in capsys.readouterr().err

    def test_missing_checkpoint(self, fixture_config):
        assert run(["predict", "--config", fixture_config]) == 2


class TestNonFiniteExit3:
    """A run that would write a non-finite number exits 3 with one
    ``error:`` line and writes no such artifact."""

    @staticmethod
    def outcome(capsys, argv, out):
        """main's exit code, its stderr lines and the files it left in ``out``."""
        capsys.readouterr()
        code = run(argv + ["--out", out])
        return code, capsys.readouterr().err.splitlines(), sorted(p.name for p in out.rglob("*") if p.is_file())

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_divergence_in_the_last_update(self, command, tmp_path, capsys):
        # One batch and one epoch: the only update is the last one, and no
        # later batch checks its loss.
        config = write_cli_fixture(tmp_path, n_days=60, feature_mode="dlpm", batch_size=100000,
                                   learning_rate=1e308, epochs=1, epoch_sizes="1")
        code, err, written = self.outcome(capsys, [command, "--config", config], tmp_path / "out")
        assert (code, written) == (3, [])
        assert len(err) == 1 and err[0].startswith("error: training loss became non-finite"), err

    def test_predict_with_weights_of_1e306(self, tmp_path, capsys):
        # At hidden 200 the output unit adds 201 terms of about 1e306.
        config = write_cli_fixture(tmp_path, n_days=60, hidden_size=200, epochs=1)
        assert run(["train", "--config", config]) == 0
        path = tmp_path / "huge.json"
        doc = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
        doc["params"] = {name: [1e306] * len(values) for name, values in doc["params"].items()}
        path.write_text(json.dumps(doc))
        code, err, written = self.outcome(capsys, ["predict", "--config", config, "--checkpoint", path],
                                          tmp_path / "predict")
        assert (code, err, written) == (3, ["error: prediction became non-finite in 15 of 15 windows"], [])

    def test_checkpoint_with_an_infinite_loss(self, fixture_config, tmp_path, monkeypatch, capsys):
        def infinite_loss(*args, **kwargs):
            checkpoint = lstm.train(*args, **kwargs)
            checkpoint.loss_history = (math.inf,) * len(checkpoint.loss_history)
            return checkpoint

        monkeypatch.setattr(cli, "train", infinite_loss)
        code, err, written = self.outcome(capsys, ["train", "--config", fixture_config], tmp_path / "out")
        assert (code, err, written) == (3, ["error: checkpoint would hold a non-finite number"], [])

    def test_report_with_a_nan(self, fixture_config, tmp_path, monkeypatch, capsys):
        def nan_rmse(*args, **kwargs):
            report = evaluation.run_comparison(*args, **kwargs)
            return EvalReport(tuple(replace(record, rmse=math.nan) for record in report.records))

        monkeypatch.setattr(cli, "run_comparison", nan_rmse)
        code, err, written = self.outcome(capsys, ["compare", "--config", fixture_config, "--epoch-sizes", "1"],
                                          tmp_path / "out")
        assert (code, err, written) == (3, ["error: report would hold a non-finite number"], [])

    def test_finite_predictions_whose_errors_overflow(self, fixture_config, tmp_path, monkeypatch, capsys):
        # (a - p)**2 overflows in rmse; numpy's warning would be a second line.
        monkeypatch.setattr(evaluation, "predict", lambda checkpoint, windows: lstm.np.full(len(windows), 1e200))
        code, err, written = self.outcome(capsys, ["compare", "--config", fixture_config, "--epoch-sizes", "1"],
                                          tmp_path / "out")
        assert (code, err, written) == (3, ["error: report would hold a non-finite number"], [])


def bad_checkpoint(build):
    """Set-up step: write ``build(config, tmp_path)`` as a checkpoint file and pass it."""

    def prepare(config, tmp_path) -> list:
        path = tmp_path / "bad_checkpoint.json"
        path.write_text(build(config, tmp_path))
        return ["--checkpoint", path]

    return prepare


def edited_checkpoint(edit):
    """Set-up step: pass a trained checkpoint document changed by ``edit``."""

    def build(config, tmp_path) -> str:
        assert run(["train", "--config", config]) == 0
        doc = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
        edit(doc)
        return json.dumps(doc)

    return bad_checkpoint(build)


def edited_file(name, edit):
    """Set-up step: replace the bytes of fixture file ``name`` with ``edit(bytes)``."""

    def prepare(config, tmp_path) -> list:
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        return []

    return prepare


#: A hidden size whose (4H, F+H+1) gate matrix numpy cannot even shape.
HUGE_H = b"hidden_size = 100000000000000000000\n"
#: What numpy raises for train's (4H, F+H+1) gate matrix at hidden_size 100000 and 4 features.
NUMPY_OUT_OF_MEMORY = "Unable to allocate 298. GiB for an array with shape (400000, 100005) and data type float64"
#: A price row whose Open cell exceeds the csv module's 131,072-character field limit.
OVERSIZED_ROW = b"2030-01-01," + b"1" * 200_000 + b",1,1,1,1,1\n"


#: Each window setting, given in the config file, with a value WindowSpec refuses and its refusal.
WINDOW_SETTINGS = [
    pytest.param("feature_mode", "xyz", "unknown feature mode 'xyz'", id="feature-mode-xyz"),
    pytest.param("target_field", "xyz", "unknown target field 'xyz'", id="target-field-xyz"),
    pytest.param("split_fraction", 1.5, "split_fraction must lie strictly between 0 and 1, got 1.5",
                 id="split-fraction-1.5"),
    pytest.param("lookback", 0, "lookback must be positive, got 0", id="lookback-0"),
]


class TestBadSettingsExit2:
    @pytest.mark.parametrize("argv, prepare", [
        pytest.param(["train", "--epochs", "0"], None, id="train-epochs-0"),
        pytest.param(["train", "--lookback", "0"], None, id="train-lookback-0"),
        pytest.param(["predict", "--lookback", "0"], edited_checkpoint(lambda doc: None), id="predict-lookback-0"),
        pytest.param(["compare", "--lookback", "0"], None, id="compare-lookback-0"),
        pytest.param(["train", "--split-fraction", "1.5"], None, id="train-split-fraction-1.5"),
        pytest.param(["compare", "--epoch-sizes", "0"], None, id="compare-epoch-sizes-0"),
        pytest.param(["compare", "--epoch-sizes", ""], None, id="compare-epoch-sizes-empty"),
        pytest.param(["compare", "--epoch-sizes", "1,1"], None, id="compare-epoch-sizes-repeated"),
        pytest.param(["train", "--seed", "-1"], None, id="train-seed-negative"),
        pytest.param(["compare", "--seed", "-1"], None, id="compare-seed-negative"),
        pytest.param(["predict"], bad_checkpoint(lambda config, tmp_path: "not json\n"),
                     id="predict-non-json-checkpoint"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc.pop("config")),
                     id="predict-checkpoint-without-config"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc["params"]["W_f"].append(0.0)),
                     id="predict-W_f-extra-entry"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc["params"].pop("W_i")),
                     id="predict-without-W_i"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc["params"]["b_o"].pop()),
                     id="predict-b_o-wrong-length"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc.update(input_size=float("inf"))),
                     id="predict-input-size-infinity"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc["params"]["W_f"].__setitem__(0, 10**400)),
                     id="predict-parameter-overflows-float"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc.update(feature_mode="xyz")),
                     id="predict-feature-mode-unknown"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc.update(feature_mode=5)),
                     id="predict-feature-mode-number"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc.update(hidden_size=doc["hidden_size"] + 0.5)),
                     id="predict-hidden-size-fraction"),
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc["config"].update(hidden_size=2 * doc["hidden_size"])),
                     id="predict-config-hidden-size-differs"),
        # epochs = true equals 1, so with a history of one loss only its type is wrong.
        pytest.param(["predict"], edited_checkpoint(lambda doc: doc.update(loss_history=doc["loss_history"][:1],
                                                                           config={**doc["config"], "epochs": True})),
                     id="predict-config-epochs-true"),
        *[pytest.param(["predict"], edited_checkpoint(lambda doc, field=field, value=value: doc["config"].update({field: value})),
                       id=f"predict-config-{field}-{value}")
          for field, value in [("batch_size", 2.5), ("seed", 0.5), ("learning_rate", True), ("grad_clip_norm", True)]],
        pytest.param(["predict"], bad_checkpoint(lambda config, tmp_path: "[" * 100_000 + "]" * 100_000),
                     id="predict-deeply-nested-checkpoint"),
        pytest.param(["ingest"], edited_file("config.ini", lambda ini: ini + b"seed = 8\n"),
                     id="config-duplicate-key"),
        pytest.param(["ingest"], edited_file("config.ini", lambda ini: ini.replace(b"[run]\n", b"")),
                     id="config-without-section-header"),
        pytest.param(["train"], edited_file("config.ini", lambda ini: ini.replace(b"hidden_size = 8\n", HUGE_H)),
                     id="train-hidden-size-impossible"),
        pytest.param(["ingest"], edited_file("prices.csv", lambda csv: csv + OVERSIZED_ROW),
                     id="ingest-oversized-csv-cell"),
        pytest.param(["ingest"], edited_file("config.ini", lambda ini: ini.replace(b"= prices", b"= p\r rices")),
                     id="config-path-continued-on-a-second-line"),
        pytest.param(["ingest"], edited_file("config.ini", lambda ini: ini.replace(b"historical", b"h\x0bistorical")),
                     id="config-key-holding-a-vertical-tab"),
    ])
    def test_one_error_line(self, argv, prepare, fixture_config, tmp_path, capsys):
        if prepare is not None:
            argv = argv + prepare(fixture_config, tmp_path)
        capsys.readouterr()
        assert run(argv + ["--config", fixture_config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("command", ["train", "predict", "compare"])
    @pytest.mark.parametrize("key, value, message", WINDOW_SETTINGS)
    def test_window_setting_refused_before_any_input_is_read(self, command, key, value, message, tmp_path, capsys):
        # Neither the price file nor predict's checkpoint exists.
        argv = [command, "--config", write_cli_fixture(tmp_path, n_days=60, historical="missing.csv", **{key: value})]
        if command == "predict":
            argv += ["--checkpoint", tmp_path / "missing.json"]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["ingest", "sentiment"])
    @pytest.mark.parametrize("key, value, message", WINDOW_SETTINGS)
    def test_window_settings_play_no_part_in_ingest_and_sentiment(self, command, key, value, message, tmp_path):
        assert run([command, "--config", write_cli_fixture(tmp_path, n_days=60, **{key: value})]) == 0

    @pytest.mark.parametrize("error, message", [
        pytest.param(MemoryError(NUMPY_OUT_OF_MEMORY), NUMPY_OUT_OF_MEMORY, id="numpy-allocation"),
        pytest.param(MemoryError(), "out of memory", id="bare"),
    ])
    def test_memory_error(self, error, message, fixture_config, monkeypatch, capsys):
        # A hidden size too large to allocate fails in init_params; the
        # failure is stood in for here rather than attempted.
        def refuse(*args):
            raise error

        monkeypatch.setattr(lstm, "init_params", refuse)
        capsys.readouterr()
        assert run(["train", "--config", fixture_config]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestNotUtf8Exit2:
    @pytest.mark.parametrize("command, flag, name, kind", [
        pytest.param("ingest", "--historical", "prices.csv", "OHLCV CSV", id="ingest-historical"),
        pytest.param("ingest", "--tweets", "tweets.jsonl", "tweet JSONL", id="ingest-tweets"),
        pytest.param("sentiment", "--lexicon", "lexicon.tsv", "lexicon TSV", id="sentiment-lexicon"),
        pytest.param("ingest", "--config", "config.ini", "config INI", id="ingest-config"),
    ])
    def test_one_error_line(self, command, flag, name, kind, fixture_config, tmp_path, capsys):
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        capsys.readouterr()
        assert run([command, "--config", fixture_config, flag, path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and kind in err[0], err


class TestByteOrderMark:
    @pytest.mark.parametrize("name", ["prices.csv", "tweets.jsonl", "lexicon.tsv", "config.ini"])
    def test_same_output_as_without(self, name, fixture_config, tmp_path, capsys):
        # Spreadsheet programs start a file saved as "CSV UTF-8" with one.
        def outputs():
            capsys.readouterr()
            for command in ("ingest", "sentiment"):
                assert run([command, "--config", fixture_config]) == 0
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
            return capsys.readouterr().out, files

        plain = outputs()
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert outputs() == plain


class TestCompare:
    def test_table_and_artifacts(self, fixture_config, tmp_path, capsys):
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2,3"]) == 0
        out = capsys.readouterr().out.splitlines()
        # The two count lines, then the table.
        assert out[0].startswith("tweets: ") and out[1].startswith("daily sentiment: ")
        table_lines = [ln for ln in out[2:] if ln and not ln.startswith("wrote")]
        # header + separator + 2 sizes x 2 models + 2 averages
        assert len(table_lines) == 8
        outdir = tmp_path / "out"
        assert (outdir / "report.json").is_file()
        for variant in ("hisa", "dlpm"):
            for epochs in (2, 3):
                assert (outdir / f"plot_{variant}_epochs{epochs}.csv").is_file()
                assert (outdir / f"checkpoint_{variant}_epochs{epochs}.json").is_file()
        report = json.loads((outdir / "report.json").read_text())
        assert len(report["records"]) == 4

    def test_prints_the_counts_sentiment_prints(self, fixture_config, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        kept = [line for line in tweets.read_text().splitlines() if '"2020-01-02T' not in line]
        late = '{"timestamp": "2031-01-01T10:00:00Z", "text": "after the last session", "id": "late"}'
        tweets.write_text("\n".join(kept) + "\nnot json\n" + late + "\n")
        assert run(["sentiment", "--config", fixture_config]) == 0
        expected = capsys.readouterr().out.splitlines()[:2]
        assert expected == [
            f"tweets: {len(kept) + 1} valid, 1 skipped",
            "daily sentiment: 60 trading days, 1 with no tweets, 1 tweets past final session dropped",
        ]
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == expected
        assert set(json.loads((tmp_path / "out" / "report.json").read_text())) == {"version", "records", "averages"}

    def test_byte_identical_reruns(self, fixture_config, tmp_path):
        artifacts = ("report.json", "plot_hisa_epochs2.csv", "checkpoint_dlpm_epochs2.json",
                     "resolved_config.ini")
        outdir = tmp_path / "out"
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2"]) == 0
        first = {name: (outdir / name).read_bytes() for name in artifacts}
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2"]) == 0
        for name in artifacts:
            assert (outdir / name).read_bytes() == first[name], name

    @staticmethod
    def with_epochs(config, line):
        """A copy of the fixture config whose epochs line is ``line``."""
        text = config.read_text()
        assert "\nepochs = 5\n" in text
        edited = config.with_name("edited.ini")
        edited.write_text(text.replace("\nepochs = 5\n", f"\n{line}"))
        return edited

    def test_ignores_epochs(self, fixture_config, tmp_path):
        # compare trains to max(epoch_sizes); epochs is train's key.
        def artifacts(config, out):
            assert run(["compare", "--config", config, "--epoch-sizes", "2,3", "--out", out]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "resolved_config.ini"}

        default = artifacts(self.with_epochs(fixture_config, ""), tmp_path / "default")
        assert len(default) == 9
        assert artifacts(self.with_epochs(fixture_config, "epochs = 0\n"), tmp_path / "zero") == default

    @pytest.mark.parametrize("sizes", ["0", "", "1,1"])
    def test_epoch_sizes_message_with_epochs_0(self, sizes, fixture_config, capsys):
        capsys.readouterr()
        config = self.with_epochs(fixture_config, "epochs = 0\n")
        assert run(["compare", "--config", config, "--epoch-sizes", sizes]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epoch_sizes must be one or more positive integers"), err

    def test_unknown_feature_mode_refused(self, fixture_config, capsys):
        # compare trains every mode, but a feature_mode it cannot name is a bad setting.
        text = fixture_config.read_text()
        assert "\nfeature_mode = hisa\n" in text
        fixture_config.write_text(text.replace("\nfeature_mode = hisa\n", "\nfeature_mode = xyz\n"))
        capsys.readouterr()
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: unknown feature mode 'xyz'"]

    def test_training_settings_checked_before_inputs_are_read(self, fixture_config, tmp_path, capsys):
        (tmp_path / "prices.csv").write_bytes(b"\xff")
        text = fixture_config.read_text()
        for line, bad, message in [
            ("hidden_size = 8", "hidden_size = 0", "hidden_size must be a positive integer"),
            ("learning_rate = 0.01", "learning_rate = inf", "learning_rate must be a positive finite number"),
            # The fixture leaves the clip norm at its default; the case adds the line.
            ("batch_size = 16", "batch_size = 16\ngrad_clip_norm = inf", "grad_clip_norm must be a positive finite number"),
        ]:
            assert f"\n{line}\n" in text
            fixture_config.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
            capsys.readouterr()
            assert run(["compare", "--config", fixture_config]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestCommandsAgree:
    """train and predict build their windows as compare does, so their
    artifacts equal compare's byte for byte."""

    @pytest.mark.parametrize("mode", ["hisa", "dlpm"])
    def test_train_and_predict_match_compare(self, mode, fixture_config, tmp_path):
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2,3",
                    "--out", tmp_path / "compare"]) == 0
        for epochs in (2, 3):
            out = tmp_path / f"{mode}{epochs}"
            assert run(["train", "--config", fixture_config, "--feature-mode", mode,
                        "--epochs", epochs, "--out", out]) == 0
            compared = tmp_path / "compare" / f"checkpoint_{mode}_epochs{epochs}.json"
            assert (out / "checkpoint.json").read_bytes() == compared.read_bytes()
            assert run(["predict", "--config", fixture_config, "--feature-mode", mode,
                        "--checkpoint", out / "checkpoint.json", "--out", out]) == 0
            plot = tmp_path / "compare" / f"plot_{mode}_epochs{epochs}.csv"
            assert (out / "predictions.csv").read_bytes() == plot.read_bytes()


#: ``train`` then ``predict`` into one output directory: python -c THREADED_RUN CONFIG OUT.
THREADED_RUN = """
import sys
from sentistock.cli import main
config, out = sys.argv[1:]
code = main(["train", "--config", config, "--out", out])
sys.exit(code or main(["predict", "--config", config, "--out", out, "--checkpoint", out + "/checkpoint.json"]))
"""


class TestBlasThreads:
    def test_artifacts_do_not_depend_on_thread_count(self, tmp_path):
        # Hidden 128 and batch 64 give GEMMs that OpenBLAS splits across threads.
        config = write_cli_fixture(tmp_path, n_days=200, hidden_size=128, batch_size=64, epochs=2)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            outs.append(tmp_path / f"threads{threads}")
            result = subprocess.run([sys.executable, "-c", THREADED_RUN, str(config), str(outs[-1])],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
        for name in ("checkpoint.json", "predictions.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


#: Runs each command given on the command line (a JSON argv list, run with
#: the config unless it names its own) in one fresh interpreter and prints,
#: as the last line, each one's exit code and whether numpy had loaded after it.
LAZY_NUMPY_RUN = """
import json, sys, types
from sentistock.cli import main
config, commands = sys.argv[1], sys.argv[2:]
results = []
for command in commands:
    argv = json.loads(command)
    code = main(argv if "--config" in argv else argv + ["--config", config])
    # The lazy module is registered as "numpy" before it loads, so look for
    # a submodule that only a real import brings in.
    results.append([code, "numpy.linalg" in sys.modules and type(sys.modules["numpy"]) is types.ModuleType])
print(json.dumps(results))
"""

#: One forward pass in a fresh interpreter; prints the type of lstm's np
#: binding before and after it.
FIRST_FORWARD_RUN = """
import sys
import sentistock.lstm as lstm
before = type(lstm.np).__name__
params = lstm.init_params(3, 4, 0)
lstm.forward(lstm.np.zeros((2, 5, 3)), params)
print(before, type(lstm.np).__name__, lstm.np is sys.modules["numpy"])
"""

#: Runs train, predict on train's checkpoint and compare in one fresh
#: interpreter with the config given on the command line, and prints, as
#: the last line, each one's exit code and whether numpy.random had loaded.
NO_NUMPY_RANDOM_RUN = """
import json, sys
from sentistock.cli import main
config, checkpoint = sys.argv[1], sys.argv[2]
results = []
for argv in (["train"], ["predict", "--checkpoint", checkpoint], ["compare", "--epoch-sizes", "1,2"]):
    results.append([main(argv + ["--config", config]), "numpy.random" in sys.modules])
print(json.dumps(results))
"""


def _fresh_python(*args: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestStartup:
    def test_import_loads_no_process_pool(self):
        # compare forks with os alone; these modules would add to start-up time.
        code = ("import sys, sentistock.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
        assert _fresh_python("-c", code) == "[]"

    def test_text_commands_never_load_numpy_and_train_does(self, fixture_config):
        bad_target = fixture_config.with_name("bad_target.ini")
        bad_target.write_text(fixture_config.read_text().replace("target_field = close", "target_field = xyz"))
        commands = [["ingest"], ["sentiment"], ["train", "--epochs", "0"], ["train", "--lookback", "0"],
                    ["compare", "--lookback", "0"], ["train", "--config", str(bad_target)], ["train"]]
        out = _fresh_python("-c", LAZY_NUMPY_RUN, str(fixture_config), *map(json.dumps, commands))
        assert json.loads(out.splitlines()[-1]) == [[0, False], [0, False], [2, False], [2, False], [2, False],
                                                    [2, False], [0, True]]

    def test_train_predict_and_compare_never_load_numpy_random(self, fixture_config, tmp_path):
        # The init and the shuffles come from sentistock._pcg64.
        checkpoint = str(tmp_path / "out" / "checkpoint.json")
        out = _fresh_python("-c", NO_NUMPY_RANDOM_RUN, str(fixture_config), checkpoint)
        assert json.loads(out.splitlines()[-1]) == [[0, False], [0, False], [0, False]]

    def test_no_proxy_left_after_first_forward(self):
        assert _fresh_python("-c", FIRST_FORWARD_RUN) == "_LazyModule module True"

    def test_lazy_module_on_a_stub_package(self):
        script = Path(__file__).resolve().parent / "lazy_module_check.py"
        assert _fresh_python("-W", "error", str(script)) == "ok"


class TestConfigHandling:
    def test_flag_overrides_config(self, fixture_config, tmp_path):
        other = tmp_path / "elsewhere"
        assert run(["train", "--config", fixture_config, "--out", other]) == 0
        assert (other / "checkpoint.json").is_file()

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nmystery = 1\n")
        assert run(["ingest", "--config", config]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["ingest", "--config", tmp_path / "none.ini"]) == 2

    def test_inline_comments_allowed(self, fixture_config, tmp_path):
        text = fixture_config.read_text().replace(
            "feature_mode = hisa", "feature_mode = hisa   ; or dlpm"
        )
        fixture_config.write_text(text)
        assert run(["train", "--config", fixture_config]) == 0
        resolved = (tmp_path / "out" / "resolved_config.ini").read_text()
        assert "feature_mode = hisa\n" in resolved

    def test_resolved_config_records_overrides(self, fixture_config, tmp_path):
        assert run(["train", "--config", fixture_config, "--seed", "123"]) == 0
        text = (tmp_path / "out" / "resolved_config.ini").read_text()
        assert "seed = 123" in text

    def test_percent_in_config_value_is_literal(self, fixture_config, tmp_path):
        fixture_config.write_text(fixture_config.read_text() + "symbol = 100%\n")
        assert run(["ingest", "--config", fixture_config]) == 0
        assert json.loads((tmp_path / "out" / "bars.json").read_text())["symbol"] == "100%"
        assert "symbol = 100%\n" in (tmp_path / "out" / "resolved_config.ini").read_text()

    def test_percent_in_out_flag_is_literal(self, fixture_config, tmp_path):
        out = tmp_path / "dir%x"
        prices = tmp_path / "prices%1.csv"
        prices.write_bytes((tmp_path / "prices.csv").read_bytes())
        assert run(["ingest", "--config", fixture_config, "--out", out, "--historical", prices]) == 0
        text = (out / "resolved_config.ini").read_text()
        assert "out = .\n" in text and "historical = ../prices%1.csv\n" in text


class TestResolvedConfig:
    """``resolved_config.ini`` reruns its run from wherever the tree lies."""

    def test_paths_relative_to_out(self, fixture_config, tmp_path):
        assert run(["ingest", "--config", fixture_config]) == 0
        text = (tmp_path / "out" / "resolved_config.ini").read_text()
        assert str(tmp_path) not in text
        assert "historical = ../prices.csv\ntweets = ../tweets.jsonl\nlexicon = ../lexicon.tsv\nout = .\n" in text

    def test_identical_bytes_under_another_parent(self, tmp_path):
        outs = []
        for parent in ("a", "a_longer_parent_name"):
            tree = tmp_path / parent / "run"
            tree.mkdir(parents=True)
            config = write_cli_fixture(tree, n_days=60, seed=7)
            assert run(["compare", "--config", config, "--epoch-sizes", "1,2"]) == 0
            outs.append(tree / "out")
        names = sorted(p.name for p in outs[0].iterdir())
        assert "resolved_config.ini" in names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_copied_tree_replays(self, tmp_path):
        original = tmp_path / "original"
        original.mkdir()
        config = write_cli_fixture(original, n_days=60, seed=7)
        assert run(["compare", "--config", config, "--epoch-sizes", "1,2"]) == 0
        expected = {p.name: p.read_bytes() for p in (original / "out").iterdir()}
        copy = tmp_path / "copy"
        shutil.copytree(original, copy)
        shutil.rmtree(original)
        for path in (copy / "out").iterdir():
            if path.name != "resolved_config.ini":
                path.unlink()
        assert run(["compare", "--config", copy / "out" / "resolved_config.ini"]) == 0
        assert not original.exists()
        assert {p.name: p.read_bytes() for p in (copy / "out").iterdir()} == expected

    def test_out_with_inline_comment_marker_replays(self, fixture_config, tmp_path):
        # " #" starts an inline comment, so the directory must be written as
        # "." for the rerun to land in it rather than in "out".
        out = tmp_path / "out #1"
        assert run(["ingest", "--config", fixture_config, "--out", out]) == 0
        expected = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(["ingest", "--config", out / "resolved_config.ini"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected
        assert not (tmp_path / "out").exists()

    def test_nul_byte_in_path_exits_2(self, tmp_path, capsys):
        config = tmp_path / "nul.ini"
        config.write_bytes(b"[run]\nout = a\x00b\n")
        assert run(["ingest", "--config", config]) == 2
        assert capsys.readouterr().err == "error: config key 'out': a path cannot hold a NUL byte\n"

    @pytest.mark.parametrize("marker", [" #", " ;"])
    def test_unreplayable_path_exits_2_before_reading_input(self, marker, fixture_config, tmp_path, capsys):
        # Were the file read, its bytes would fail as UTF-8 instead.
        prices = tmp_path / f"data{marker}1" / "prices.csv"
        prices.parent.mkdir()
        prices.write_bytes(b"\xff\n")
        out = tmp_path / "new_out"
        assert run(["ingest", "--config", fixture_config, "--historical", prices, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'historical': ") and err.count("\n") == 1
        assert f"data{marker}1/prices.csv" in err
        assert not out.exists()


def edited(data: bytes, edits) -> bytes:
    """``data`` after each (position, cut, insert) edit in turn: the bytes
    at position modulo the length are cut and the insert put in their place."""
    for position, cut, insert in edits:
        at = position % (len(data) + 1)
        data = data[:at] + insert + data[at + cut:]
    return data


def byte_edits(syntax: str):
    """One to four edits whose inserts are mostly runs of the format's own
    characters, sometimes any text or any bytes."""
    own = st.text(syntax, max_size=12).map(str.encode)
    insert = st.one_of(own, own, own, st.text(max_size=4).map(str.encode), st.binary(max_size=4))
    return st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 40), insert), min_size=1, max_size=4)


CSV_SYNTAX = ',\n\r" -.eE0123456789naifNIDate'
JSONL_SYNTAX = '{}[]":,\n\\ tTzZ+-:.0123456789eu'
TSV_SYNTAX = "\t\n\r -.0123456789termnegatorintensity"
INI_SYNTAX = "[]=:;#%\n\r -.,0123456789abcdefghijklmnopqrstuvwxyz_"
#: Marks a document edit that removes its key.
REMOVE = object()
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=6),
    st.lists(st.one_of(st.floats(), st.integers(-5, 5), st.text(max_size=3)), max_size=4),
    st.dictionaries(st.text(max_size=6), st.integers(-5, 5), max_size=2),
)


class TestFuzzedInputs:
    """Malformed inputs, one file at a time: every ``main`` outcome is 0, 2
    or 3, with at most one ``error:`` line and never a traceback."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz")
        config = write_cli_fixture(base, n_days=40, lookback=5, epochs=1)
        assert main(["train", "--config", str(config)]) == 0
        return base

    def outcome(self, base, argv):
        """Run ``main`` on argv, writing below ``base``, and check its exit
        code and stderr."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv] + ["--out", str(base / "fuzz_out")])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3), (code, lines)
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), lines
        assert (code == 0) == (not lines), (code, lines)

    def mutated(self, base, name, edits) -> Path:
        path = base / f"fuzzed_{name}"
        path.write_bytes(edited((base / name).read_bytes(), edits))
        return path

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=byte_edits(CSV_SYNTAX))
    def test_price_csv(self, base, edits):
        path = self.mutated(base, "prices.csv", edits)
        self.outcome(base, ["train", "--config", base / "config.ini", "--historical", path])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=byte_edits(JSONL_SYNTAX))
    def test_tweet_jsonl(self, base, edits):
        path = self.mutated(base, "tweets.jsonl", edits)
        self.outcome(base, ["sentiment", "--config", base / "config.ini", "--tweets", path])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=byte_edits(TSV_SYNTAX))
    def test_lexicon_tsv(self, base, edits):
        path = self.mutated(base, "lexicon.tsv", edits)
        self.outcome(base, ["sentiment", "--config", base / "config.ini", "--lexicon", path])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=byte_edits(INI_SYNTAX))
    def test_config_ini(self, base, edits):
        # predict trains nothing, so no edited setting can make the run long;
        # --out overrides wherever the edited file points.
        path = self.mutated(base, "config.ini", edits)
        self.outcome(base, ["predict", "--config", path, "--checkpoint", base / "out" / "checkpoint.json"])

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.sampled_from(["params", "config", "scaler", ""]), st.integers(0, 100),
                                 st.one_of(st.just(REMOVE), JSON_VALUES)), min_size=1, max_size=3),
        raw=st.one_of(st.just([]), byte_edits('{}[]":,\n -.0123456789eE')),
    )
    def test_checkpoint(self, base, edits, raw):
        # Document-level edits (a key of the document, or of its params,
        # config or scaler object, removed or given another value), then
        # optional byte-level edits of the text.
        doc = json.loads((base / "out" / "checkpoint.json").read_text())
        for section, index, value in edits:
            target = doc.get(section) if section else doc
            if not isinstance(target, dict) or not target:
                continue
            key = sorted(target)[index % len(target)]
            if value is REMOVE:
                del target[key]
            else:
                target[key] = value
        path = base / "fuzzed_checkpoint.json"
        path.write_bytes(edited(json.dumps(doc, sort_keys=True).encode(), raw))
        self.outcome(base, ["predict", "--config", base / "config.ini", "--checkpoint", path])
