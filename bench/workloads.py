"""Seeded input generators, workload definitions and output checks.

The benchmark builds every input itself from ``--seed``; it imports nothing
from the test suite, so an edit to the tests cannot change a workload. The
generators use ``random.Random``, whose stream is fixed across Python
versions: the same seed gives byte-identical input files, and a different
seed gives different bytes.

Each generator also returns the counts it knows by construction (valid and
malformed tweet lines, tweets past the final session, tweets that roll
forward from a non-trading day, window counts). The output checks and the
traced run compare the program against these.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

WORKLOADS = ("compare_paper", "sentiment_corpus", "train_predict_wide")

#: Why each workload exists; the same text is in BENCHMARK.json.
WHY = {
    "compare_paper": "paper protocol: compare hisa vs dlpm at 5/10/15 epochs; overhead-bound lstm.train, 6 runs",
    "sentiment_corpus": "ingest + sentiment on 36k noisy tweets: parsing, scoring and JSON writers; no lstm",
    "train_predict_wide": "train + predict dlpm, hidden 128, batch 64: BLAS-sized GEMMs, one epoch size, big checkpoint",
}

#: The kind of reference work (see reference.py) that each workload's time
#: is divided by: the one that uses the host as the workload does.
REFERENCE = {"compare_paper": "interpreter", "sentiment_corpus": "interpreter", "train_predict_wide": "blas"}

SPLIT_FRACTION = 0.75
ONE_DAY = timedelta(days=1)

FILLER = (
    "market", "today", "shares", "stock", "price", "chart", "watching", "open",
    "close", "volume", "trading", "session", "earnings", "call", "week", "morning",
    "update", "ahead", "report", "quarter", "guidance", "analyst", "fund", "index",
    "sector", "futures", "options", "dividend", "buyback", "ceo", "product", "launch",
    "supply", "demand", "rates", "fed", "inflation", "jobs", "data", "the", "a",
    "and", "of", "to", "in", "on", "for", "with", "at", "this", "that", "is", "it",
    "we", "they", "after", "before", "into", "from", "2024", "q3", "10", "café",
)
NEGATORS = ("not", "never", "no", "hardly")
NAMED_INTENSIFIERS = (("very", 1.5), ("extremely", 2.0), ("slightly", 0.5), ("somewhat", 0.75))
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass
class Prepared:
    """A workload's generated inputs and what a correct run must produce."""

    name: str
    steps: list[list[str]]
    expected: dict
    inputs_sha256: str


def prepare(name: str, seed: int, inputs: Path, out: Path) -> Prepared:
    """Write the workload's inputs for ``seed`` and return its CLI steps."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "compare_paper":
        settings, expected = _compare_paper(rng, inputs)
        commands = [["compare"]]
    elif name == "sentiment_corpus":
        settings, expected = _sentiment_corpus(rng, inputs)
        commands = [["ingest"], ["sentiment"]]
    elif name == "train_predict_wide":
        settings, expected = _train_predict_wide(rng, inputs)
        commands = [["train"], ["predict", "--checkpoint", str(out / "checkpoint.json")]]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    lines = ["[run]"] + [f"{k} = {v}" for k, v in settings.items()]
    config = inputs / "config.ini"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    steps = [cmd[:1] + ["--config", str(config), "--out", str(out)] + cmd[1:] for cmd in commands]
    return Prepared(name, steps, expected, tree_sha256(inputs))


def tree_sha256(directory: Path, exclude: tuple[str, ...] = ()) -> str:
    """sha256 over the names and bytes of every file below ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        if rel in exclude:
            continue
        digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _window_counts(n_days: int, lookback: int) -> tuple[int, int]:
    """(train, test) windows that fuse + make_windows cut from n_days bars."""
    rows = n_days - 1
    split_index = math.floor(SPLIT_FRACTION * rows)
    return split_index - lookback, rows - split_index


# ---------------------------------------------------------------- markets

def _trading_days(rng: random.Random, n: int, start: date, holiday_rate: float) -> list[date]:
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5 and rng.random() >= holiday_rate:
            days.append(d)
        d += ONE_DAY
    return days


def _bar(rng: random.Random, open_: float, close: float) -> tuple[float, ...]:
    """Rounded (open, high, low, close, volume) with low/high bracketing."""
    o, c = round(open_, 4), round(close, 4)
    hi = round(max(o, c) * (1.0 + abs(rng.gauss(0.0, 0.003))), 4)
    lo = round(min(o, c) * (1.0 - abs(rng.gauss(0.0, 0.003))), 4)
    return o, max(hi, o, c), min(lo, o, c), c, rng.randint(100_000, 5_000_000)


def _walk_bars(rng: random.Random, days: list[date]) -> list[tuple[float, ...]]:
    """Mean-reverting geometric random walk around 100."""
    bars, close = [], 100.0
    for _ in days:
        open_ = close * (1.0 + rng.gauss(0.0, 0.004))
        close = close * math.exp(rng.gauss(0.0002, 0.012) - 0.002 * math.log(close / 100.0))
        bars.append(_bar(rng, open_, close))
    return bars


def _write_csv(
    path: Path,
    rng: random.Random,
    days: list[date],
    bars: list[tuple[float, ...]],
    ddmmyyyy: bool = False,
    missing_rate: float = 0.0,
    thousands: bool = False,
) -> None:
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for d, (o, h, l, c, v) in zip(days, bars):
        cells = [repr(o), repr(h), repr(l), repr(c), repr(c), f'"{v:,}"' if thousands else str(v)]
        for k in range(len(cells)):
            if rng.random() < missing_rate:
                cells[k] = ""
        stamp = d.strftime("%d-%m-%Y") if ddmmyyyy else d.isoformat()
        lines.append(",".join([stamp] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------- compare_paper

_COMPARE_LEXICON = (
    "term\tpolarity\tintensity\tflag\n"
    "good\t0.7\t1.0\tterm\ngreat\t0.9\t1.0\tterm\nstrong\t0.6\t1.0\tterm\n"
    "bad\t-0.7\t1.0\tterm\nterrible\t-0.9\t1.0\tterm\nweak\t-0.6\t1.0\tterm\n"
    "not\t0\t1.0\tnegator\nvery\t0\t1.3\tterm\n"
)
_POSITIVE = ("good results today", "great quarter", "strong outlook ahead")
_NEGATIVE = ("bad results today", "terrible quarter", "weak outlook ahead")
_NEUTRAL = ("market update posted", "watching the tape", "no change expected")


def _compare_paper(rng: random.Random, inputs: Path) -> tuple[dict, dict]:
    """250 trading days whose next close follows the day's tweet mix.

    Each tweet carries one keyword, so the realized daily percentages are
    exactly the generator's mix and the hisa model has real signal.
    """
    n_days, lookback, epoch_sizes = 250, 15, (5, 10, 15)
    days = _trading_days(rng, n_days, date(2020, 1, 1), 0.0)
    level, s = 100.0, 0.0
    mixes, realized = [], []
    for _ in days:
        s = max(-1.0, min(1.0, 0.5 * s + 0.5 * rng.uniform(-1.0, 1.0)))
        n = rng.randint(12, 23)
        k_pos = max(0, min(n, round(n * (0.4 + 0.3 * s))))
        k_neg = max(0, min(n - k_pos, round(n * (0.4 - 0.3 * s))))
        mixes.append((k_pos, k_neg, n - k_pos - k_neg))
        realized.append((k_pos - k_neg) / n)
    closes = [level]
    for t in range(n_days - 1):
        trend = 0.85 * level * (1.0 + 0.2 * realized[t])
        closes.append(0.15 * closes[-1] + trend + rng.gauss(0.0, 0.25))
    bars, prev = [], level
    for c in closes:
        bars.append(_bar(rng, prev * (1.0 + rng.gauss(0.0, 0.002)), c))
        prev = c
    _write_csv(inputs / "prices.csv", rng, days, bars)

    lines = []
    for d, (k_pos, k_neg, k_neu) in zip(days, mixes):
        texts = (
            [_POSITIVE[i % 3] for i in range(k_pos)]
            + [_NEGATIVE[i % 3] for i in range(k_neg)]
            + [_NEUTRAL[i % 3] for i in range(k_neu)]
        )
        for i, text in enumerate(texts):
            stamp = f"{d.isoformat()}T{10 + i // 60:02d}:{i % 60:02d}:00+00:00"
            lines.append(json.dumps({"id": f"t{len(lines)}", "text": text, "timestamp": stamp}))
    (inputs / "tweets.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (inputs / "lexicon.tsv").write_text(_COMPARE_LEXICON, encoding="utf-8")

    n_train, n_test = _window_counts(n_days, lookback)
    settings = {
        "historical": "prices.csv", "tweets": "tweets.jsonl", "lexicon": "lexicon.tsv",
        "lookback": lookback, "hidden_size": 32, "batch_size": 16, "learning_rate": 0.02,
        "seed": 7, "epoch_sizes": ",".join(map(str, epoch_sizes)),
    }
    expected = {
        "n_days": n_days, "epoch_sizes": list(epoch_sizes),
        "tweets_valid": len(lines), "tweets_skipped": 0, "tweets_dropped": 0,
        "tweets_rolled_forward": 0, "tweets_scored": len(lines),
        "windows_train": n_train, "windows_test": n_test,
        # Both variants train once per epoch size on the same train windows.
        "window_steps": 2 * n_train * lookback * sum(epoch_sizes),
    }
    return settings, expected


# ------------------------------------------------------- sentiment_corpus

def _pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    seen = set(taken)
    while len(words) < n:
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _sentiment_corpus(rng: random.Random, inputs: Path) -> tuple[dict, dict]:
    """2,000 sessions with ~36k multi-token tweets and a generated lexicon.

    Tweets carry URLs, @-mentions, hashtags, cashtags, negators and
    intensifiers. Some are posted on weekends and holidays (they roll
    forward), some after the final session (dropped), a few sessions get
    none, and about 1% of the lines are malformed (skipped).
    """
    n_days = 2000
    days = _trading_days(rng, n_days, date(2012, 1, 2), 0.02)
    bars = _walk_bars(rng, days)
    _write_csv(inputs / "prices.csv", rng, days, bars, ddmmyyyy=True, missing_rate=0.005, thousands=True)

    taken = set(FILLER) | set(NEGATORS) | {w for w, _ in NAMED_INTENSIFIERS}
    generated = _pseudo_words(rng, 3000, taken)
    rows = ["term\tpolarity\tintensity\tflag"]
    scoring, intensifiers = [], [w for w, _ in NAMED_INTENSIFIERS]
    for w, inten in NAMED_INTENSIFIERS:
        rows.append(f"{w}\t0\t{inten}\tterm")
    for w in NEGATORS:
        rows.append(f"{w}\t0\t1.0\tnegator")
    for w in generated:
        polarity = round(rng.uniform(-1.0, 1.0), 3)
        if rng.random() < 0.05:
            rows.append(f"{w}\t{polarity}\t{rng.choice((0.5, 0.75, 1.5, 2.0))}\tterm")
            intensifiers.append(w)
        else:
            rows.append(f"{w}\t{polarity}\t1.0\tterm")
            scoring.append(w)
    (inputs / "lexicon.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    trading = set(days)
    counts = {"valid": 0, "skipped": 0, "dropped": 0, "rolled": 0, "with_clause": 0}
    lines = []
    d, last = days[0] - 3 * ONE_DAY, days[-1] + 3 * ONE_DAY
    while d <= last:
        if d > days[-1]:
            n = rng.randint(5, 15)
        elif d in trading:
            # About 1% of sessions get no tweets at all.
            n = rng.randint(9, 23) if rng.random() >= 0.01 else 0
        else:
            n = rng.randint(2, 8)
        for _ in range(n):
            text, has_clause = _tweet_text(rng, scoring, intensifiers)
            record = {"id": f"s{len(lines)}", "text": text, "timestamp": _timestamp(rng, d)}
            if rng.random() < 0.01:
                lines.append(_malformed(rng, record))
                counts["skipped"] += 1
                continue
            lines.append(json.dumps(record))
            counts["valid"] += 1
            counts["with_clause"] += has_clause
            if d > days[-1]:
                counts["dropped"] += 1
            elif d not in trading:
                counts["rolled"] += 1
        d += ONE_DAY
    (inputs / "tweets.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    settings = {"historical": "prices.csv", "tweets": "tweets.jsonl", "lexicon": "lexicon.tsv"}
    expected = {
        "n_days": n_days,
        "tweets_valid": counts["valid"], "tweets_skipped": counts["skipped"],
        "tweets_dropped": counts["dropped"], "tweets_rolled_forward": counts["rolled"],
        "tweets_scored": counts["valid"] - counts["dropped"],
        "clause_share": counts["with_clause"] / counts["valid"],
    }
    return settings, expected


def _timestamp(rng: random.Random, d: date) -> str:
    """A timestamp whose local date is ``d``, in one of several RFC 3339 forms."""
    hh, mm, ss = rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
    base = f"{d.isoformat()}T{hh:02d}:{mm:02d}:{ss:02d}"
    form = rng.random()
    if form < 0.6:
        return base + "Z"
    if form < 0.8:
        return base + ".123+00:00"
    return base + "-05:00"


def _tweet_text(rng: random.Random, scoring: list[str], intensifiers: list[str]) -> tuple[str, bool]:
    """Tweet text plus whether it holds at least one scoring clause."""
    words = [rng.choice(FILLER) for _ in range(rng.randint(3, 10))]
    has_clause = rng.random() < 0.7
    if has_clause:
        for _ in range(rng.randint(1, 3)):
            phrase = []
            r = rng.random()
            if r < 0.15:
                phrase.append(rng.choice(NEGATORS))
            elif r < 0.30:
                phrase.append(rng.choice(intensifiers))
            term = rng.choice(scoring)
            phrase.append("#" + term if rng.random() < 0.15 else term)
            at = rng.randint(0, len(words))
            words[at:at] = phrase
    elif rng.random() < 0.3:
        # A modifier with no scoring term after it opens no clause.
        words.insert(rng.randint(0, len(words)), rng.choice(NEGATORS + tuple(intensifiers[:4])))
    # URLs and @-mentions are stripped before tokenizing, so lexicon terms
    # inside them never score.
    if rng.random() < 0.25:
        words.append(f"https://t.co/{rng.randrange(16**8):08x}/{rng.choice(scoring)}")
    if rng.random() < 0.25:
        words.insert(0, "@" + rng.choice(scoring))
    if rng.random() < 0.2:
        words.insert(rng.randint(0, len(words)), "$" + "".join(rng.choice("ABCDEFGHJKMNPRSTVXZ") for _ in range(3)))
    if rng.random() < 0.1:
        words.append("🚀")
    for k in range(len(words)):
        r = rng.random()
        if r < 0.1:
            words[k] = words[k].capitalize()
        elif r < 0.15:
            words[k] = words[k] + rng.choice(("!", "...", ",", "?!"))
    return " ".join(words), has_clause


def _malformed(rng: random.Random, record: dict) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        line = json.dumps(record)
        return line[: len(line) // 2]
    if kind == 1:
        return json.dumps({k: v for k, v in record.items() if k != "id"})
    if kind == 2:
        return json.dumps({**record, "text": "   "})
    if kind == 3:
        return json.dumps({**record, "timestamp": record["timestamp"][:5] + "02-30T10:00:00Z"})
    return json.dumps([record["id"], record["text"]])


# ----------------------------------------------------- train_predict_wide

def _train_predict_wide(rng: random.Random, inputs: Path) -> tuple[dict, dict]:
    """2,000 sessions of prices only, with a few missing cells to impute."""
    n_days, lookback, epochs = 2000, 30, 2
    days = _trading_days(rng, n_days, date(2012, 1, 2), 0.0)
    _write_csv(inputs / "prices.csv", rng, days, _walk_bars(rng, days), missing_rate=0.002)
    n_train, n_test = _window_counts(n_days, lookback)
    settings = {
        "historical": "prices.csv", "feature_mode": "dlpm", "lookback": lookback,
        "hidden_size": 128, "batch_size": 64, "learning_rate": 0.005, "epochs": epochs, "seed": 7,
    }
    expected = {
        "n_days": n_days, "windows_train": n_train, "windows_test": n_test,
        "window_steps": n_train * lookback * epochs,
    }
    return settings, expected


# ----------------------------------------------------------- output checks

def check_outputs(name: str, out: Path, expected: dict) -> tuple[list[str], dict]:
    """Problems found in one iteration's artifacts, plus observed accuracy."""
    try:
        if name == "compare_paper":
            return _check_compare(out, expected)
        if name == "sentiment_corpus":
            return _check_sentiment(out, expected), {}
        return _check_train_predict(out, expected)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {exc!r}"], {}


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _check_compare(out: Path, expected: dict) -> tuple[list[str], dict]:
    problems = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    records = report["records"]
    epoch_sizes = expected["epoch_sizes"]
    if len(records) != 2 * len(epoch_sizes):
        problems.append(f"report has {len(records)} records, expected {2 * len(epoch_sizes)}")
    wanted = {(v, e) for e in epoch_sizes for v in ("dlpm", "hisa")}
    if {(r["variant"], r["epochs"]) for r in records} != wanted:
        problems.append("report records do not cover both modes at every epoch size")
    for r in records:
        tag = f"{r['variant']}@{r['epochs']}"
        if abs(r["accuracy_pct"] + r["mape_pct"] - 100.0) > 1e-9:
            problems.append(f"{tag}: accuracy + MAPE != 100")
        if not len(r["dates"]) == len(r["real"]) == len(r["predicted"]) == expected["windows_test"]:
            problems.append(f"{tag}: {len(r['predicted'])} predictions, expected {expected['windows_test']}")
        plot = out / f"plot_{r['variant']}_epochs{r['epochs']}.csv"
        if len(_csv_rows(plot)) != expected["windows_test"]:
            problems.append(f"{plot.name}: wrong row count")
        if not (out / f"checkpoint_{r['variant']}_epochs{r['epochs']}.json").is_file():
            problems.append(f"{tag}: checkpoint missing")
    averages = report["averages"]
    for variant in ("dlpm", "hisa"):
        accs = [r["accuracy_pct"] for r in records if r["variant"] == variant]
        if not accs or abs(averages[variant] - sum(accs) / len(accs)) > 1e-9:
            problems.append(f"{variant}: average accuracy does not match its records")
    observed = {"acc_pct": averages["hisa"], "acc_gap_pct": averages["hisa"] - averages["dlpm"]}
    return problems, observed


def _check_sentiment(out: Path, expected: dict) -> list[str]:
    problems = []
    bars = json.loads((out / "bars.json").read_text(encoding="utf-8"))["bars"]
    if len(bars) != expected["n_days"]:
        problems.append(f"bars.json has {len(bars)} bars, expected {expected['n_days']}")
    with open(out / "tweets_valid.jsonl", encoding="utf-8") as fh:
        valid = sum(1 for _ in fh)
    if valid != expected["tweets_valid"]:
        problems.append(f"tweets_valid.jsonl has {valid} lines, expected {expected['tweets_valid']}")
    rows = _csv_rows(out / "daily_sentiment.csv")
    if len(rows) != expected["n_days"]:
        problems.append(f"daily_sentiment.csv has {len(rows)} days, expected {expected['n_days']}")
    total = 0
    for row in rows:
        pos, neg, neu, count = float(row[1]), float(row[2]), float(row[3]), int(row[4])
        total += count
        if abs(pos + neg + neu - 100.0) > 1e-9 or (count == 0 and (pos, neg, neu) != (0.0, 0.0, 100.0)):
            problems.append(f"{row[0]}: class percentages {pos}, {neg}, {neu} do not sum to 100")
            break
    if total != expected["tweets_scored"]:
        problems.append(f"daily tweet counts sum to {total}, expected valid - dropped = {expected['tweets_scored']}")
    return problems


def _check_train_predict(out: Path, expected: dict) -> tuple[list[str], dict]:
    problems = []
    if not (out / "checkpoint.json").is_file():
        problems.append("checkpoint.json missing")
    rows = _csv_rows(out / "predictions.csv")
    if len(rows) != expected["windows_test"]:
        problems.append(f"predictions.csv has {len(rows)} rows, expected {expected['windows_test']}")
    real = [float(r[1]) for r in rows]
    predicted = [float(r[2]) for r in rows]
    if not all(math.isfinite(v) for v in real + predicted) or not all(v > 0 for v in real):
        problems.append("predictions.csv holds a non-finite value or a non-positive actual")
        return problems, {}
    mape = 100.0 * sum(abs(a - p) / abs(a) for a, p in zip(real, predicted)) / max(len(real), 1)
    return problems, {"acc_pct": 100.0 - mape}
