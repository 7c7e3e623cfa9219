"""Per-layer tracing from outside the program.

The layers are the package modules. The modules import each other with
``from .x import y``, so a call crosses a layer boundary through the
caller's own binding (``sentistock.cli.train``, ``sentistock.evaluation.fuse``,
``sentistock.lstm.invert_target``). ``Tracer.install`` wraps every such binding,
plus ``sentistock.cli.main`` as the root span of each command. Calls inside
one module are not wrapped: they belong to that module's self time.

Spans stay in memory and are summarized after each iteration, outside the
timed region. A function called once per item (``tweet_to_json_line``) gets
one aggregate timer and count instead of a span per call.
"""

from __future__ import annotations

import importlib
import inspect
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = ("market_data", "sentiment", "features", "lstm", "evaluation", "cli")
AGGREGATED = {"market_data.tweet_to_json_line"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    args: tuple
    result: object


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.child_s: list[float] = []
        self.stack: list[int] = []
        self.aggregates: dict[str, list] = {}

    def reset(self) -> None:
        self.spans.clear()
        self.child_s.clear()
        self.stack.clear()
        for agg in self.aggregates.values():
            agg[0], agg[1] = 0.0, 0

    def span(self, name: str, fn):
        spans, child_s, stack = self.spans, self.child_s, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            child_s.append(0.0)
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    child_s[parent] += end - start
                spans[idx] = Span(name, start, end, parent, args, result)

        return wrapper

    def aggregate(self, name: str, fn):
        agg = self.aggregates.setdefault(name, [0.0, 0])
        child_s, stack = self.child_s, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg[0] += elapsed
                agg[1] += 1
                if stack:
                    child_s[stack[-1]] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every cross-layer binding and ``cli.main`` for this process."""
        modules = {layer: importlib.import_module(f"sentistock.{layer}") for layer in LAYERS}
        owners = {m.__name__: layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = owners.get(obj.__module__)
                if owner is None or owner == layer:
                    continue
                name = f"{owner}.{obj.__name__}"
                wrap = self.aggregate if name in AGGREGATED else self.span
                setattr(module, attr, wrap(name, obj))
        cli = modules["cli"]
        cli.main = self.span("cli.main", cli.main)

    def summary(self, out: Path) -> dict[str, float]:
        """Per-layer values for one iteration (times in s, counts exact)."""
        spans = [s for s in self.spans if s is not None]
        values: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s, child_s in zip(self.spans, self.child_s):
            if s is None:
                continue
            values[f"{s.name}.s"] = values.get(f"{s.name}.s", 0.0) + (s.end - s.start)
            values[f"{s.name}.calls"] = values.get(f"{s.name}.calls", 0) + 1
            # Self time: the span's duration minus what its child spans cover.
            values[f"{s.name.split('.')[0]}.self_s"] += s.end - s.start - child_s
        for name, (seconds, calls) in self.aggregates.items():
            values[f"{name}.s"] = seconds
            values[f"{name}.calls"] = calls
            values[f"{name.split('.')[0]}.self_s"] += seconds
        values["trace.self_sum_s"] = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        values["trace.spans"] = len(spans)
        values.update(_counts(spans, out))
        return values


def _last(spans: list[Span], name: str) -> Span | None:
    found = [s for s in spans if s.name == name and s.result is not None]
    return found[-1] if found else None


def _counts(spans: list[Span], out: Path) -> dict[str, float]:
    """Counts read off the wrapped calls' arguments and results.

    Each count describes one pass over the workload's inputs, so it is taken
    from the last call of its function in the iteration.
    """
    values: dict[str, float] = {}
    parsed = _last(spans, "market_data.parse_tweets_jsonl")
    tweets, skipped = parsed.result if parsed else ([], 0)
    values["market_data.tweets_valid"] = len(tweets)
    values["market_data.tweets_skipped"] = skipped

    aligned = _last(spans, "market_data.align_to_trading_days")
    buckets, dropped = aligned.result if aligned else ({}, 0)
    values["market_data.tweets_dropped"] = dropped
    values["market_data.tweets_rolled_forward"] = sum(
        1 for day, bucket in buckets.items() for t in bucket if t.timestamp.date() != day
    )

    scored = _last(spans, "sentiment.score_corpus")
    labels = [s.label for scores in (scored.result.values() if scored else ()) for s in scores]
    for label in ("positive", "negative", "neutral"):
        values[f"sentiment.labels_{label}"] = labels.count(label)
    daily = _last(spans, "sentiment.aggregate_daily")
    values["sentiment.zero_tweet_days"] = sum(1 for d in (daily.result if daily else ()) if d.tweet_count == 0)

    windows = _last(spans, "features.make_windows")
    train_w, test_w = windows.result if windows else ((), ())
    values["features.windows_train"] = len(train_w)
    values["features.windows_test"] = len(test_w)

    # Gate GEMM flops per sample-timestep: forward z @ W (2·(F+H)·4H), and in
    # BPTT the weight gradient and the input gradient (the same again each).
    # The output projection adds 2H forward and 4H backward per window.
    steps = flops = 0
    for s in spans:
        if s.name != "lstm.train" or s.result is None:
            continue
        windows_arg, config = s.args[0], s.args[1]
        n, lookback, features = windows_arg.sequences.shape
        hidden = config.hidden_size
        steps += n * lookback * config.epochs
        flops += n * config.epochs * (lookback * 24 * hidden * (features + hidden) + 6 * hidden)
    values["lstm.train.window_steps"] = steps
    values["lstm.train.flop"] = flops

    values["lstm.checkpoint_bytes"] = sum(
        os.path.getsize(s.args[1]) for s in spans if s.name == "lstm.save_checkpoint" and os.path.isfile(s.args[1])
    )
    files = [p for p in out.rglob("*") if p.is_file()]
    values["cli.files_written"] = len(files)
    values["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    return values
