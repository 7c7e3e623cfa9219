import json

import pytest

from sentistock.cli import main

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

    def test_divergence_exits_3(self, tmp_path):
        config = write_cli_fixture(tmp_path, n_days=60, seed=7,
                                   learning_rate=1e200, optimizer="sgd",
                                   grad_clip_norm=1e300, batch_size=8)
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["train", "--config", config]) == 3


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

    def test_feature_mode_mismatch_exits_2(self, fixture_config, tmp_path, capsys):
        assert run(["train", "--config", fixture_config]) == 0  # hisa checkpoint
        code = run(["predict", "--config", fixture_config, "--feature-mode", "dlpm",
                    "--checkpoint", tmp_path / "out" / "checkpoint.json"])
        assert code == 2
        assert "scaler columns" in capsys.readouterr().err

    def test_missing_checkpoint(self, fixture_config):
        assert run(["predict", "--config", fixture_config]) == 2


def checkpoint_without_config(config, tmp_path) -> str:
    assert run(["train", "--config", config]) == 0
    doc = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    del doc["config"]
    return json.dumps(doc)


class TestBadSettingsExit2:
    @pytest.mark.parametrize("argv, checkpoint", [
        pytest.param(["train", "--epochs", "0"], None, id="train-epochs-0"),
        pytest.param(["train", "--lookback", "0"], None, id="train-lookback-0"),
        pytest.param(["train", "--split-fraction", "1.5"], None, id="train-split-fraction-1.5"),
        pytest.param(["compare", "--epoch-sizes", "0"], None, id="compare-epoch-sizes-0"),
        pytest.param(["compare", "--epoch-sizes", ""], None, id="compare-epoch-sizes-empty"),
        pytest.param(["predict"], lambda config, tmp_path: "not json\n", id="predict-non-json-checkpoint"),
        pytest.param(["predict"], checkpoint_without_config, id="predict-checkpoint-without-config"),
    ])
    def test_one_error_line(self, argv, checkpoint, fixture_config, tmp_path, capsys):
        if checkpoint is not None:
            path = tmp_path / "bad_checkpoint.json"
            path.write_text(checkpoint(fixture_config, tmp_path))
            argv = argv + ["--checkpoint", path]
        capsys.readouterr()
        assert run(argv + ["--config", fixture_config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestNotUtf8Exit2:
    @pytest.mark.parametrize("command, flag, name, kind", [
        pytest.param("ingest", "--historical", "prices.csv", "OHLCV CSV", id="ingest-historical"),
        pytest.param("ingest", "--tweets", "tweets.jsonl", "tweet JSONL", id="ingest-tweets"),
        pytest.param("sentiment", "--lexicon", "lexicon.tsv", "lexicon TSV", id="sentiment-lexicon"),
    ])
    def test_one_error_line(self, command, flag, name, kind, fixture_config, tmp_path, capsys):
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        capsys.readouterr()
        assert run([command, "--config", fixture_config, flag, path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and kind in err[0], err


class TestCompare:
    def test_table_and_artifacts(self, fixture_config, tmp_path, capsys):
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2,3"]) == 0
        out = capsys.readouterr().out
        table_lines = [ln for ln in out.splitlines() if ln and not ln.startswith("wrote")]
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

    def test_byte_identical_reruns(self, fixture_config, tmp_path):
        artifacts = ("report.json", "plot_hisa_epochs2.csv", "checkpoint_dlpm_epochs2.json",
                     "resolved_config.ini")
        outdir = tmp_path / "out"
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2"]) == 0
        first = {name: (outdir / name).read_bytes() for name in artifacts}
        assert run(["compare", "--config", fixture_config, "--epoch-sizes", "2"]) == 0
        for name in artifacts:
            assert (outdir / name).read_bytes() == first[name], name


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
