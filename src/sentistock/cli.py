"""Batch command-line pipeline: ingest, sentiment, train, predict, compare.

All commands read one INI config file (section [run], keys documented in
the README) with per-command flag overrides; flags win. Every run writes
its resolved configuration beside its outputs, with paths relative to the
output directory, so results are replayable wherever the tree is moved.
No artifact contains a timestamp: identical inputs plus an identical seed
give byte-identical outputs.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import EmptyInput, NonFiniteLoss, PipelineError
from .evaluation import (
    daily_sentiment,
    model_windows,
    record_plot_csv,
    render_table,
    report_to_json,
    run_comparison,
)
from .features import FEATURE_MODES, ScalerParams, WindowSpec, invert_target
from .lstm import TrainConfig, load_checkpoint, predict, save_checkpoint, train
from .market_data import (
    BarSeries,
    DEFAULT_SCHEMA,
    OHLCV_FIELDS,
    Tweet,
    _utf8_text,
    bars_to_json,
    parse_ohlcv_csv,
    parse_tweets_jsonl,
    tweet_to_json_line,
)
from .sentiment import Lexicon, daily_sentiment_csv, load_lexicon


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    historical: str | None = None
    tweets: str | None = None
    lexicon: str | None = None
    checkpoint: str | None = None
    out: str = "out"
    symbol: str = ""
    # WindowSpec's and TrainConfig's defaults, except seed and epochs, which differ on purpose.
    feature_mode: str = WindowSpec.feature_mode
    target_field: str = WindowSpec.target_field
    lookback: int = WindowSpec.lookback
    hidden_size: int = TrainConfig.hidden_size
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    grad_clip_norm: float = TrainConfig.grad_clip_norm
    optimizer: str = TrainConfig.optimizer
    split_fraction: float = WindowSpec.split_fraction
    seed: int = 7
    epochs: int = 10
    epoch_sizes: tuple[int, ...] = (5, 10, 15)
    column_date: str = DEFAULT_SCHEMA["date"]
    column_open: str = DEFAULT_SCHEMA["open"]
    column_high: str = DEFAULT_SCHEMA["high"]
    column_low: str = DEFAULT_SCHEMA["low"]
    column_close: str = DEFAULT_SCHEMA["close"]
    column_adj_close: str = DEFAULT_SCHEMA["adj_close"]
    column_volume: str = DEFAULT_SCHEMA["volume"]

    def schema_map(self) -> dict[str, str]:
        return {f: getattr(self, f"column_{f}") for f in OHLCV_FIELDS}

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def window_spec(self) -> WindowSpec:
        return WindowSpec(**{f.name: getattr(self, f.name) for f in fields(WindowSpec)})


# A value is parsed by the type of its key's default: int, float or tuple.
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_PATH_KEYS = {"historical", "tweets", "lexicon", "checkpoint", "out"}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge config-file values and flag overrides over the defaults."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "rb") as fh, _utf8_text(fh, "config INI") as text:
                values = _read_run_section(text, path, Path(path).resolve().parent)
        except FileNotFoundError as exc:
            raise PipelineError(f"config file not found: {path}") from exc
    for key, value in overrides.items():
        if value is not None:
            values[key] = _coerce(key, value, Path.cwd())
    unknown = sorted(set(values) - _DEFAULTS.keys())
    if unknown:
        raise PipelineError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**values)


def _read_run_section(text, source: str, base: Path) -> dict:
    """The [run] section's values, parsed, with paths resolved against ``base``."""
    # No interpolation: every value is literal, '%' included.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_file(text, source=source)
    except configparser.Error as exc:
        # configparser's messages span several lines; the CLI prints one.
        raise PipelineError(" ".join(str(exc).split())) from exc
    if not parser.has_section("run"):
        raise PipelineError(f"config file {source} has no [run] section")
    return {key: _coerce(key, raw, base) for key, raw in parser.items("run")}


def _coerce(key: str, raw, base: Path):
    if isinstance(raw, str):
        raw = raw.strip()
    kind = type(_DEFAULTS.get(key))
    try:
        if kind in (int, float):
            return kind(raw)
        if kind is tuple:
            if isinstance(raw, str):
                parts = [p for p in raw.replace(",", " ").split() if p]
                return tuple(int(p) for p in parts)
            return tuple(int(p) for p in raw)
    except (TypeError, ValueError) as exc:
        raise PipelineError(f"config key {key!r}: cannot parse {raw!r}") from exc
    if key in _PATH_KEYS and raw:
        if "\0" in raw:
            raise PipelineError(f"config key {key!r}: a path cannot hold a NUL byte")
        p = Path(raw)
        return str(p if p.is_absolute() else base / p)
    return raw


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        value = getattr(cfg, key)
        if not value:
            raise PipelineError(f"config key {key!r} is required for this command")
        if not Path(value).is_file():
            raise PipelineError(f"input file not found: {value}")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolved_config(cfg: RunConfig) -> str:
    """The text of ``resolved_config.ini``, which reruns ``cfg`` as
    ``--config <out>/resolved_config.ini``.

    Each path is written relative to the output directory, the file's own,
    as :func:`load_config` resolves it, so the file holds no trace of where
    the tree lies. A setting that the text would read back otherwise (a
    path holding `` #``, which starts an inline comment) is refused.
    """
    out = os.path.realpath(cfg.out)
    written = _resolved_values(cfg, out)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({"run": written})
    buffer = io.StringIO()
    parser.write(buffer)
    text = buffer.getvalue()
    again = _resolved_values(RunConfig(**_read_run_section(io.StringIO(text), "resolved_config.ini", Path(out))), out)
    for key, value in written.items():
        if again[key] != value:
            raise PipelineError(f"config key {key!r}: {value!r} would read back from resolved_config.ini "
                                f"as {again[key]!r}")
    return text


def _resolved_values(cfg: RunConfig, out: str) -> dict[str, str]:
    """Each set key's value as ``resolved_config.ini`` writes it."""
    values = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "epoch_sizes":
            value = ",".join(str(e) for e in value)
        elif f.name in _PATH_KEYS and value:
            value = os.path.relpath(os.path.realpath(value), out)
        values[f.name] = str(value)
    return values


def _load_series(cfg: RunConfig) -> BarSeries:
    _require(cfg, "historical")
    with open(cfg.historical, "rb") as fh:
        return parse_ohlcv_csv(fh, schema_map=cfg.schema_map(), symbol=cfg.symbol)


def _load_tweets(cfg: RunConfig) -> tuple[list[Tweet], int]:
    _require(cfg, "tweets")
    with open(cfg.tweets, "rb") as fh:
        return parse_tweets_jsonl(fh)


def _load_lexicon(cfg: RunConfig) -> Lexicon:
    _require(cfg, "lexicon")
    with open(cfg.lexicon, "rb") as fh:
        return load_lexicon(fh)


def cmd_ingest(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    series = _load_series(cfg)
    tweets, skipped = _load_tweets(cfg)
    (out / "bars.json").write_text(bars_to_json(series), encoding="utf-8")
    with open(out / "tweets_valid.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(tweet_to_json_line(tweet) + "\n" for tweet in tweets)
    print(f"bars: {len(series)} rows ({series.bars[0].date}..{series.bars[-1].date})")
    print(f"tweets: {len(tweets)} valid, {skipped} skipped")
    print(f"wrote {out / 'bars.json'} and {out / 'tweets_valid.jsonl'}")
    return 0


def _print_daily_counts(trading_days: int, empty_days: int, dropped: int) -> None:
    print(
        f"daily sentiment: {trading_days} trading days, {empty_days} with no tweets, "
        f"{dropped} tweets past final session dropped"
    )


def cmd_sentiment(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    series = _load_series(cfg)
    lexicon = _load_lexicon(cfg)
    # An empty corpus is not an error here: every day simply reports 100%
    # neutral, which keeps downstream features defined.
    try:
        tweets, skipped = _load_tweets(cfg)
    except EmptyInput as exc:
        tweets = []
        print(f"tweets: {exc}")
    else:
        print(f"tweets: {len(tweets)} valid, {skipped} skipped")
    records, dropped = daily_sentiment(tweets, series, lexicon)
    (out / "daily_sentiment.csv").write_text(daily_sentiment_csv(records), encoding="utf-8")
    _print_daily_counts(len(records), sum(1 for rec in records if rec.tweet_count == 0), dropped)
    print(f"wrote {out / 'daily_sentiment.csv'}")
    return 0


def _model_windows(cfg: RunConfig, spec: WindowSpec, scaler: ScalerParams | None = None):
    series = _load_series(cfg)
    daily = []
    if spec.feature_mode == "hisa":
        daily, _ = daily_sentiment(_load_tweets(cfg)[0], series, _load_lexicon(cfg))
    return model_windows(series, daily, spec, scaler)


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    config, spec = cfg.train_config(), cfg.window_spec()  # bad settings exit before the inputs are read
    train_windows, _, scaler, _ = _model_windows(cfg, spec)
    checkpoint = train(train_windows, config, scaler=scaler, feature_mode=spec.feature_mode)
    save_checkpoint(checkpoint, out / "checkpoint.json")
    print(
        f"trained {spec.feature_mode} model: {cfg.epochs} epochs on {len(train_windows)} windows, "
        f"final training loss {checkpoint.loss_history[-1]:.6g}"
    )
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    spec = cfg.window_spec()  # bad settings exit before any input, the checkpoint too, is read
    _require(cfg, "checkpoint")
    out = _out_dir(cfg)
    checkpoint = load_checkpoint(cfg.checkpoint)
    if checkpoint.scaler is None:
        raise PipelineError("checkpoint carries no scaler; cannot denormalize predictions")
    _, test_windows, scaler, dates = _model_windows(cfg, spec, checkpoint.scaler)
    predicted = predict(checkpoint, test_windows)
    real = invert_target(test_windows.labels, scaler)
    (out / "predictions.csv").write_text(record_plot_csv(dates, real, predicted), encoding="utf-8")
    print(f"predicted {len(predicted)} test days with the {checkpoint.feature_mode} checkpoint")
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    # run_comparison trains to max(epoch_sizes), so train's epochs key plays no part.
    config = replace(cfg, epochs=1).train_config()  # bad settings exit before the inputs are read
    spec = cfg.window_spec()  # run_comparison trains every mode, but an unknown one is refused here
    series = _load_series(cfg)
    tweets, skipped = _load_tweets(cfg)
    lexicon = _load_lexicon(cfg)

    # The checkpoints are written only once the report has encoded, so a
    # report refused for a non-finite number leaves no file of the run.
    checkpoints = {}

    def sink(variant: str, epochs: int, document: str) -> None:
        checkpoints[f"checkpoint_{variant}_epochs{epochs}.json"] = document

    report = run_comparison(series, tweets, lexicon, cfg.epoch_sizes, config, spec, checkpoint_sink=sink)
    report_text = report_to_json(report)
    for name, document in checkpoints.items():
        (out / name).write_text(document, encoding="utf-8")
    (out / "report.json").write_text(report_text, encoding="utf-8")
    for record in report.records:
        name = f"plot_{record.variant}_epochs{record.epochs}.csv"
        csv_text = record_plot_csv(record.dates, record.real, record.predicted)
        (out / name).write_text(csv_text, encoding="utf-8")
    print(f"tweets: {len(tweets)} valid, {skipped} skipped")
    _print_daily_counts(report.trading_days, report.zero_tweet_days, report.tweets_dropped)
    print(render_table(report), end="")
    print(f"wrote {out / 'report.json'}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "sentiment": cmd_sentiment,
    "train": cmd_train,
    "predict": cmd_predict,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentistock",
        description="Stock forecasting pipeline fusing OHLCV history with tweet sentiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse and validate the OHLCV CSV and tweet corpus"),
        ("sentiment", "score tweets and emit per-trading-day class percentages"),
        ("train", "train one model and write a checkpoint"),
        ("predict", "predict the test split with an existing checkpoint"),
        ("compare", "train both feature modes at each epoch size and report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file with a [run] section")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--historical", help="OHLCV CSV path")
        p.add_argument("--tweets", help="tweet corpus JSONL path")
        p.add_argument("--lexicon", help="sentiment lexicon TSV path")
        p.add_argument("--feature-mode", dest="feature_mode", choices=FEATURE_MODES)
        p.add_argument("--lookback", type=int)
        p.add_argument("--split-fraction", dest="split_fraction", type=float)
        if name == "train":
            p.add_argument("--epochs", type=int)
        if name == "predict":
            p.add_argument("--checkpoint", help="checkpoint JSON to load")
        if name == "compare":
            p.add_argument("--epoch-sizes", dest="epoch_sizes", help="comma-separated epoch counts")
    return parser


def _print_error(exc: Exception) -> None:
    """One ``error:`` line on stderr. A message that echoes an input's
    control characters (a path that configparser continued onto a second
    line, a key holding a vertical tab) is printed with them escaped."""
    message = str(exc)
    if not message.isprintable():
        message = repr(message)[1:-1]
    print(f"error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    try:
        cfg = load_config(args.config, overrides)
        resolved = _resolved_config(cfg)  # before any input is read
        code = _COMMANDS[args.command](cfg)
        (Path(cfg.out) / "resolved_config.ini").write_text(resolved, encoding="utf-8")
        return code
    except NonFiniteLoss as exc:
        _print_error(exc)
        return 3
    except (PipelineError, OSError) as exc:
        _print_error(exc)
        return 2
    except MemoryError as exc:  # numpy's names the allocation; a bare one has no text
        _print_error(exc if str(exc) else MemoryError("out of memory"))
        return 2


if __name__ == "__main__":
    sys.exit(main())
