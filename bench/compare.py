"""Compare two result sets of bench/run.py: the parent commit and a change.

    python3 bench/compare.py PARENT/.bench_out/results CHANGE/.bench_out/results

Run both commits with the same ``--seconds`` and the same seeds (ten or
more, alternating which side runs first); runs pair up by workload, trace
mode and seed. For every workload and metric the table gives each side's
median and quartiles, the change's relative difference, the pairs the
change wins (ties count for neither) and a verdict:

  gain        at least ten pairs, the change wins at least 9/10 of them,
              and the medians differ by more than the parent's quartile
              spread
  unresolved  no gain, and a side's quartile spread, as a share of its
              median, is wider than the bound, unless every change run
              beats every parent run
  regression  the change's median is worse than the parent's by more than
              the bound
  ok          within the bound
  -           the metric has no bound (per-layer metrics, accuracy)

Counts are compared as counts: ``same`` or ``differs``. The last lines say,
per workload, on how many seeds the artifact bytes are identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: record}} for every result file below ``directory``."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed*-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound) -> tuple[str, str]:
    """(wins/pairs, verdict) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    if len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds) and sign * (cm - pm) > p3 - p1:
        return f"{wins}/{len(seeds)}", "gain"
    if bound is None:
        return f"{wins}/{len(seeds)}", "-"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change.values() for p in parent.values())
    if spread > bound and not all_better:
        return f"{wins}/{len(seeds)}", "unresolved"
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    return f"{wins}/{len(seeds)}", "regression" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_runs, change_runs = (load(Path(a)) for a in argv)
    header = f"{'workload':20s} {'metric':38s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}  verdict"
    print(header)
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parent, change = parent_runs[key], change_runs[key]
        for side, runs in (("parent", parent), ("change", change)):
            bad = [s for s, r in runs.items() if not r["correct"]]
            if bad:
                print(f"{workload:20s} {side} runs not correct on seeds {bad}")
        first = next(iter(parent.values()))
        for name, meta in first["metrics"].items():
            p = {s: r["metrics"][name]["value"] for s, r in parent.items() if r["metrics"].get(name, {}).get("value") is not None}
            c = {s: r["metrics"][name]["value"] for s, r in change.items() if r["metrics"].get(name, {}).get("value") is not None}
            if not p or not c:
                continue
            if meta["unit"] in ("count", "bytes") and all(isinstance(v, int) for v in (*p.values(), *c.values())):
                same = all(p[s] == c[s] for s in set(p) & set(c))
                print(f"{workload:20s} {name:38s} {statistics.median(p.values()):>34} {statistics.median(c.values()):>34} {'':>8s} {'':>6s}  {'same' if same else 'differs'}")
                continue
            wins, judged = verdict(p, c, meta["better"], meta.get("bound"))
            p1, pm, p3 = quartiles(list(p.values()))
            c1, cm, c3 = quartiles(list(c.values()))
            delta = f"{100.0 * (cm - pm) / abs(pm):+.1f}%" if pm else "n/a"
            print(
                f"{workload:20s} {name:38s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>34s} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>34s} {delta:>8s} {wins:>6s}  {judged}"
            )
        seeds = sorted(set(parent) & set(change))
        same = sum(1 for s in seeds if parent[s]["artifacts_sha256"] == change[s]["artifacts_sha256"])
        print(f"{workload:20s} artifacts byte-identical on {same}/{len(seeds)} seeds (trace {trace})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
