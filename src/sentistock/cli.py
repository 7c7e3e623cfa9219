"""Batch command-line pipeline: ingest, sentiment, train, predict, compare.

All commands read one INI config file (section [run], keys documented in
the README) with per-command flag overrides; flags win. Every run writes
its resolved configuration beside its outputs so results are replayable.
No artifact contains a timestamp: identical inputs plus an identical seed
give byte-identical outputs.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, fields
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
from .features import ScalerParams, invert_target
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
    feature_mode: str = "hisa"
    target_field: str = "close"
    lookback: int = 30
    hidden_size: int = 32
    learning_rate: float = 1e-3
    batch_size: int = 32
    grad_clip_norm: float = 5.0
    optimizer: str = "adam"
    split_fraction: float = 0.75
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


# A value is parsed by the type of its key's default: int, float or tuple.
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_PATH_KEYS = {"historical", "tweets", "lexicon", "checkpoint", "out"}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge config-file values and flag overrides over the defaults."""
    values: dict = {}
    if path is not None:
        # No interpolation: every value is literal, '%' included.
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            with open(path, "rb") as fh, _utf8_text(fh, "config INI") as text:
                parser.read_file(text, source=path)
        except FileNotFoundError as exc:
            raise PipelineError(f"config file not found: {path}") from exc
        except configparser.Error as exc:
            # configparser's messages span several lines; the CLI prints one.
            raise PipelineError(" ".join(str(exc).split())) from exc
        if not parser.has_section("run"):
            raise PipelineError(f"config file {path} has no [run] section")
        base = Path(path).resolve().parent
        for key, raw in parser.items("run"):
            values[key] = _coerce(key, raw, base)
    for key, value in overrides.items():
        if value is not None:
            values[key] = _coerce(key, value, Path.cwd())
    unknown = sorted(set(values) - _DEFAULTS.keys())
    if unknown:
        raise PipelineError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**values)


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


def _write_resolved_config(cfg: RunConfig, out: Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section("run")
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "epoch_sizes":
            value = ",".join(str(e) for e in value)
        parser.set("run", f.name, str(value))
    with open(out / "resolved_config.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)


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
    _write_resolved_config(cfg, out)
    print(f"bars: {len(series)} rows ({series.bars[0].date}..{series.bars[-1].date})")
    print(f"tweets: {len(tweets)} valid, {skipped} skipped")
    print(f"wrote {out / 'bars.json'} and {out / 'tweets_valid.jsonl'}")
    return 0


def cmd_sentiment(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    series = _load_series(cfg)
    lexicon = _load_lexicon(cfg)
    # An empty corpus is not an error here: every day simply reports 100%
    # neutral, which keeps downstream features defined.
    try:
        tweets, _ = _load_tweets(cfg)
    except EmptyInput:
        tweets = []
    records, dropped = daily_sentiment(tweets, series, lexicon)
    (out / "daily_sentiment.csv").write_text(daily_sentiment_csv(records), encoding="utf-8")
    _write_resolved_config(cfg, out)
    print(f"daily sentiment: {len(records)} trading days, {dropped} tweets past final session dropped")
    print(f"wrote {out / 'daily_sentiment.csv'}")
    return 0


def _model_windows(cfg: RunConfig, scaler: ScalerParams | None = None):
    series = _load_series(cfg)
    daily = []
    if cfg.feature_mode == "hisa":
        daily, _ = daily_sentiment(_load_tweets(cfg)[0], series, _load_lexicon(cfg))
    return model_windows(series, daily, cfg.feature_mode, cfg.lookback, cfg.split_fraction,
                         cfg.target_field, scaler)


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    train_windows, _, scaler, _ = _model_windows(cfg)
    checkpoint = train(train_windows, cfg.train_config(), scaler=scaler, feature_mode=cfg.feature_mode)
    save_checkpoint(checkpoint, out / "checkpoint.json")
    _write_resolved_config(cfg, out)
    print(
        f"trained {cfg.feature_mode} model: {cfg.epochs} epochs on {len(train_windows)} windows, "
        f"final training loss {checkpoint.loss_history[-1]:.6g}"
    )
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint")
    out = _out_dir(cfg)
    checkpoint = load_checkpoint(cfg.checkpoint)
    if checkpoint.scaler is None:
        raise PipelineError("checkpoint carries no scaler; cannot denormalize predictions")
    _, test_windows, scaler, dates = _model_windows(cfg, checkpoint.scaler)
    predicted = predict(checkpoint, test_windows)
    real = invert_target(test_windows.labels, scaler)
    (out / "predictions.csv").write_text(record_plot_csv(dates, real, predicted), encoding="utf-8")
    _write_resolved_config(cfg, out)
    print(f"predicted {len(predicted)} test days with the {checkpoint.feature_mode} checkpoint")
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    series = _load_series(cfg)
    tweets, _ = _load_tweets(cfg)
    lexicon = _load_lexicon(cfg)

    def sink(variant: str, epochs: int, checkpoint) -> None:
        save_checkpoint(checkpoint, out / f"checkpoint_{variant}_epochs{epochs}.json")

    report = run_comparison(
        series,
        tweets,
        lexicon,
        cfg.epoch_sizes,
        cfg.train_config(),
        lookback=cfg.lookback,
        split_fraction=cfg.split_fraction,
        target_field=cfg.target_field,
        checkpoint_sink=sink,
    )
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    for record in report.records:
        name = f"plot_{record.variant}_epochs{record.epochs}.csv"
        csv_text = record_plot_csv(record.dates, record.real, record.predicted)
        (out / name).write_text(csv_text, encoding="utf-8")
    _write_resolved_config(cfg, out)
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
        p.add_argument("--feature-mode", dest="feature_mode", choices=("hisa", "dlpm"))
        p.add_argument("--lookback", type=int)
        p.add_argument("--split-fraction", dest="split_fraction", type=float)
        if name == "train":
            p.add_argument("--epochs", type=int)
        if name == "predict":
            p.add_argument("--checkpoint", help="checkpoint JSON to load")
        if name == "compare":
            p.add_argument("--epoch-sizes", dest="epoch_sizes", help="comma-separated epoch counts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
