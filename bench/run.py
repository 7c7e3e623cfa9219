"""sentistock benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload compare_paper --seed 1 --seconds 35 --trace 0

Run it from anywhere; it uses the checkout it lives in, imports the package
from ``src/`` and writes only below ``.bench_out/`` in that checkout. The
workloads, metrics, units and bounds are in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with tracing off: one worker
process runs the workload in a closed loop for ``--seconds`` and, between
iterations, times the set-up of a fresh interpreter and a fixed piece of
reference work. ``--trace 1`` gives the per-layer metrics: an untraced
worker and a traced worker run for half of ``--seconds`` each, and their
difference is the tracing overhead.

The gated time of a workload is ``wall_ref``: the iterations' mean wall
time over the mean time of the workload's reference work (``reference.py``),
timed between the same iterations. On a shared host whose speed swings by
up to about 1.9x for seconds to minutes, the plain median ``wall_s`` of one
run spread by up to a third of its value from run to run, the ratio by
4-8%. ``wall_s`` is still measured, printed and recorded.

Every iteration's outputs are checked (see ``workloads.check_outputs``) and
hashed; a failed check, a non-zero exit or an artifact that differs from
the run's first one counts as a failed iteration. A table of every metric,
including those not gated in BENCHMARK.json, goes to standard output,
followed by one JSON line with the metrics BENCHMARK.json names. The
full record, with the run environment and input and artifact hashes, is
written to ``.bench_out/results/<workload>/seed<N>-trace<T>.json``; compare
two such directories with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE, WORKLOADS, WHY, prepare

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
#: Largest share of a traced iteration's wall time that the layers' self
#: times may leave unexplained.
RESIDUAL_LIMIT = 0.01
#: A run must end within 180 s; the worker's own hard limit is below this.
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics reported beside the gated ones in BENCHMARK.json;
#: bench/compare.py uses the bound given here (None: no bound). wall_s and
#: wall_s_tail follow the host's speed, and their run-to-run spread was
#: wider than the largest regression bound (0.25); wall_s_tail is also an
#: order statistic of 10-25 iterations (the maximum below 11). ref_s is the
#: host's speed, not the program's. Most others do not exist on every
#: workload, and failed_frac is 0 by design.
EXTRA_METRICS = {
    "wall_s": ("s", "lower", 0.25),
    "wall_s_tail": ("s", "lower", 0.25),
    "ref_s": ("s", "lower", None),
    "tweets_per_s": ("1/s", "higher", 0.25),
    "window_steps_per_s": ("1/s", "higher", 0.25),
    "failed_frac": ("frac", "lower", None),
    "acc_pct": ("%", "higher", None),
    "acc_gap_pct": ("%", "higher", None),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` first on the path.

    The BLAS thread variables are passed through as found, never set.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(env, work: Path, prepared, seconds: float, trace: bool, setup: bool = False) -> dict:
    tag = "traced" if trace else "plain"
    spec_path, result_path, log_path = (work / f"{tag}.{ext}" for ext in ("spec.json", "result.json", "stderr"))
    result_path.unlink(missing_ok=True)
    spec = {
        "workload": prepared.name, "steps": prepared.steps, "expected": prepared.expected,
        "out": str(work / "out"), "seconds": seconds, "trace": trace, "result": str(result_path),
        # Set-up time is an end-to-end metric, so only the untraced run of --trace 0 needs it.
        "setup": setup, "reference": REFERENCE[prepared.name],
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_path, "wb") as log:
        # In a session of its own, so a timeout also ends the worker's helpers.
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log, start_new_session=True,
        )
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{tag} worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{tag} worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    rank = n - 10
    return 100.0 * rank / n, ordered[rank - 1]


def environment(env: dict[str, str]) -> dict:
    code = (
        "import json, numpy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = {'name': blas.get('name'), 'version': blas.get('version')}\n"
        "except Exception:\n"
        "    blas = None\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    found = json.loads(proc.stdout) if proc.returncode == 0 else {}
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() or None if git.returncode == 0 else None
    return {
        **found,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
    }


def judge(iterations: list[dict], expected: dict, traced: bool) -> tuple[int, list[str]]:
    """Failed iterations and problems; also checks counts repeat in a traced run."""
    reference = iterations[0]["artifacts_sha256"]
    failed, problems = 0, []
    for it in iterations:
        own = list(it["problems"])
        if it["artifacts_sha256"] != reference:
            own.append("artifacts differ from the run's first iteration")
        if own:
            failed += 1
            problems.extend(own)
    if traced:
        layers = [it["layers"] for it in iterations if it["layers"] is not None]
        counts = {k for k, v in layers[0].items() if isinstance(v, int)}
        for key in sorted(counts):
            if len({layer.get(key) for layer in layers}) != 1:
                problems.append(f"count {key} differs between iterations")
        for key in ("tweets_valid", "tweets_skipped", "tweets_dropped", "tweets_rolled_forward"):
            if key in expected and layers[0][f"market_data.{key}"] != expected[key]:
                problems.append(f"traced {key} {layers[0][f'market_data.{key}']} != generated {expected[key]}")
        for key in ("windows_train", "windows_test"):
            if key in expected and layers[0][f"features.{key}"] != expected[key]:
                problems.append(f"traced {key} {layers[0][f'features.{key}']} != generated {expected[key]}")
    return failed, problems


def end_to_end(plain: dict, prepared) -> tuple[dict, dict]:
    walls = [it["wall_s"] for it in plain["iterations"] if it["timed"]]
    wall = statistics.median(walls)
    # The reference work taken before and after each timed iteration.
    # Means, not medians: the host's slow and fast phases make the
    # reference's times bimodal, and their median jumps between the modes.
    ref = statistics.fmean(plain["ref_s"][1:])
    pct, tail = tail_percentile(walls)
    expected = prepared.expected
    setup = plain["setup_s"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.fmean(walls) / ref,
        "wall_s": wall,
        "ref_s": ref,
        "wall_s_tail": tail,
        "peak_rss_mb": plain["peak_rss_mb"],
        "tweets_per_s": expected["tweets_scored"] / wall if "tweets_scored" in expected else None,
        "window_steps_per_s": expected["window_steps"] / wall if "window_steps" in expected else None,
        **{k: plain["iterations"][-1]["observed"].get(k) for k in ("acc_pct", "acc_gap_pct")},
    }
    info = {"wall_s_tail_percentile": pct, "wall_s_samples": len(walls), "setup_s_samples": len(setup)}
    return values, info


def per_layer(plain: dict, traced: dict) -> dict:
    timed = [it for it in traced["iterations"] if it["timed"]]
    keys = sorted({k for it in timed for k in it["layers"]})
    # Counts repeat exactly (judge() checks that), so they are not averaged.
    values = {
        k: timed[0]["layers"][k] if isinstance(timed[0]["layers"].get(k), int)
        else statistics.median(it["layers"].get(k, 0) for it in timed)
        for k in keys
    }
    values["lstm.train.gflop_per_s"] = statistics.median(
        it["layers"]["lstm.train.flop"] / it["layers"]["lstm.train.s"] / 1e9 if it["layers"].get("lstm.train.s") else 0.0
        for it in timed
    )
    traced_wall = statistics.median(it["wall_s"] for it in timed)
    plain_wall = statistics.median(it["wall_s"] for it in plain["iterations"] if it["timed"])
    values["trace.wall_s"] = traced_wall
    # The two workers run one after the other, so the traced wall time is
    # first rescaled to the host speed the untraced worker saw.
    speed = statistics.fmean(plain["ref_s"][1:]) / statistics.fmean(traced["ref_s"][1:])
    values["trace.overhead_s"] = traced_wall * speed - plain_wall
    # What the self times of all layers leave of the iteration's wall time.
    values["trace.residual_frac"] = statistics.median(
        abs(it["wall_s"] - it["layers"]["trace.self_sum_s"]) / it["wall_s"] for it in timed
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "sentistock" / "cli.py").is_file():
            raise BenchError(f"no sentistock package under {ROOT / 'src'}; run from a full checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = child_env()
        work = OUT / args.workload
        prepared = prepare(args.workload, args.seed, work / "inputs", work / "out")
        if args.trace:
            plain = run_worker(env, work, prepared, args.seconds / 2, trace=False)
            traced = run_worker(env, work, prepared, args.seconds / 2, trace=True)
            iterations = plain["iterations"] + traced["iterations"]
            values, info = per_layer(plain, traced), {}
            gated = spec["per_layer"]
        else:
            plain = run_worker(env, work, prepared, args.seconds, trace=False, setup=True)
            iterations = plain["iterations"]
            values, info = end_to_end(plain, prepared)
            gated = spec["end_to_end"]
        failed, problems = judge(iterations, prepared.expected, traced=bool(args.trace))
        if args.trace and values["trace.residual_frac"] > RESIDUAL_LIMIT:
            problems.append(f"layer self times leave {values['trace.residual_frac']:.2%} of the traced wall time")
        record_env = environment(env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = len(iterations)
    correct = failed == 0 and not problems
    units = {m["name"]: (m["unit"], m["better"], m.get("bound")) for m in gated}
    if not args.trace:
        values["failed_frac"] = failed / attempted
        units.update(EXTRA_METRICS)
    metrics = {
        name: {"value": values.get(name, 0), "unit": units[name][0], "better": units[name][1], "bound": units[name][2]}
        for name in units
    }
    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems[:20], "metrics": metrics, **info,
        "expected": prepared.expected, "inputs_sha256": prepared.inputs_sha256,
        "artifacts_sha256": iterations[0]["artifacts_sha256"], "environment": record_env,
        "wall_s_samples_all": [it["wall_s"] for it in iterations],
    }
    results = OUT / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    (results / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  iterations {attempted}  failed {failed}")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}")
    for key, value in info.items():
        print(f"  ({key} = {value:.4g})")
    if "clause_share" in prepared.expected:
        print(f"  (share of valid tweets with a scoring clause = {prepared.expected['clause_share']:.4f})")
    for problem in problems[:5]:
        print(f"  problem: {problem}")
    final = {name: {"value": values.get(name, 0), "unit": units[name][0]} for name in (m["name"] for m in gated)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
