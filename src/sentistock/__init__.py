"""sentistock: OHLCV history + tweet sentiment fused into an LSTM forecaster.

The package is organized along the pipeline:

  market_data  parse and validate OHLCV CSVs and tweet JSONL, align tweets
               onto the trading calendar
  sentiment    lexicon scoring, three-way classification, daily percentages
  features     the window spec, feature fusion with train-range imputation,
               train-fitted min-max scaling, walk-forward windowing
  lstm         from-scratch LSTM regressor with BPTT, Adam/SGD, checkpoints
  evaluation   MAPE-based accuracy, RMSE, and the two-model comparison
  cli          batch commands (ingest, sentiment, train, predict, compare)
"""

from .errors import PipelineError
from .market_data import (
    BarSeries,
    OhlcvBar,
    Tweet,
    align_to_trading_days,
    parse_ohlcv_csv,
    parse_tweets_jsonl,
)
from .sentiment import (
    DailySentiment,
    Lexicon,
    LexiconEntry,
    SentimentScore,
    aggregate_daily,
    load_lexicon,
    score_corpus,
    score_text,
    tokenize,
)
from .features import (
    FusedDataset,
    ScalerParams,
    WindowSpec,
    WindowedDataset,
    fuse,
    make_windows,
    scale_dataset,
)
from .lstm import (
    Checkpoint,
    LstmParams,
    TrainConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .evaluation import (
    EvalReport,
    VariantRecord,
    mape,
    model_windows,
    render_table,
    rmse,
    run_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "PipelineError",
    "BarSeries", "OhlcvBar", "Tweet",
    "align_to_trading_days", "parse_ohlcv_csv", "parse_tweets_jsonl",
    "DailySentiment", "Lexicon", "LexiconEntry", "SentimentScore",
    "aggregate_daily", "load_lexicon", "score_corpus", "score_text", "tokenize",
    "FusedDataset", "ScalerParams", "WindowSpec", "WindowedDataset",
    "fuse", "make_windows", "scale_dataset",
    "Checkpoint", "LstmParams", "TrainConfig",
    "backward", "forward", "init_params", "load_checkpoint",
    "predict", "save_checkpoint", "train",
    "EvalReport", "VariantRecord",
    "mape", "model_windows", "render_table", "rmse", "run_comparison",
]
