"""CI's bench-smoke checks, in order; the first failure stops the run.

    python ci/smoke.py

Run it from anywhere, with the Python to check. It runs the program in the
checkout it lives in, importing the package from ``src/``, and writes below
``.bench_out/`` in that checkout and in a temporary directory. It exits 0
when every check passes; otherwise it names the failed check on stderr and
exits 1.

1. Each benchmark workload runs for 5 seconds, plain and then traced
   (``--trace 1``), and must end with a line reporting ``"correct": true``.
   The traced run is the one check of the program's tweet and window counts
   against the generator's. CI runs this script on 3.11 and 3.12 so that
   both of compare's paths, forked and inline (``evaluation._fork_pays``),
   get a smoke run.
2. Every checkpoint those runs left is loaded back and re-encoded to its own
   text, so the compact encoding and the gate layout read back on both
   paths. Each workload's last iteration stays under
   ``.bench_out/<workload>/out/``: compare_paper's six checkpoints (two
   modes, three epoch sizes) and train_predict_wide's one, 7 in all.
3. Copies of compare_paper's and train_predict_wide's run trees are rerun
   from their own ``resolved_config.ini`` (compare, then predict) and must
   match the originals file for file, as ``diff -r`` compares them.
4. compare and train run on those workloads' inputs with
   ``learning_rate = 1e308``, and on compare_paper's inputs with one batch
   of dlpm windows (``batch_size = 100000``) and one epoch, whose only
   update is the last one. Each runs in a fresh interpreter (pytest turns
   a leaked numpy warning into an exception, a user sees text) and must
   exit 3 with exactly one stderr line, the ``error: training loss became
   non-finite`` one, and write no file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_OUT = ROOT / ".bench_out"
WORKLOADS = ("compare_paper", "sentiment_corpus", "train_predict_wide")
CHECKPOINTS = 7
DIVERGING = {"learning_rate": "1e308"}
ONE_BATCH = {**DIVERGING, "feature_mode": "dlpm", "batch_size": "100000", "epochs": "1", "epoch_sizes": "1"}


class SmokeFailure(Exception):
    """A check's condition does not hold; the message says how."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=_env(), text=True, **kwargs)


def smoke_runs() -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ("bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "5", "--trace", trace)
            lines = _python(*args, stdout=subprocess.PIPE).stdout.splitlines()
            print(*lines, sep="\n")
            try:
                correct = json.loads(lines[-1])["correct"] is True
            except (IndexError, ValueError, TypeError, KeyError):
                correct = False
            if not correct:
                raise SmokeFailure(f"{workload} --trace {trace} did not end with a line reporting \"correct\": true")


def checkpoints_read_back() -> None:
    from sentistock.errors import PipelineError
    from sentistock.lstm import checkpoint_to_json, load_checkpoint

    paths = sorted(BENCH_OUT.glob("*/out/checkpoint*.json"))
    for path in paths:
        try:
            same = checkpoint_to_json(load_checkpoint(path)) == path.read_text(encoding="utf-8")
        except PipelineError as exc:
            raise SmokeFailure(f"{path} does not load: {exc}") from exc
        if not same:
            raise SmokeFailure(f"{path} does not re-encode to its own text")
        print("loaded and re-encoded", path)
    if len(paths) != CHECKPOINTS:
        raise SmokeFailure(f"expected {CHECKPOINTS} checkpoints, found {len(paths)}")


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path below ``root``, relative to it: a file's bytes, None for a directory."""
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def _replay(workload: str, command: str, keep: tuple[str, ...]) -> None:
    """Copy the workload's run tree, delete every file of the copy's out/
    but ``keep``, rerun ``command`` from the copy's resolved_config.ini and
    compare both out/ trees.

    out/resolved_config.ini names every path relative to out/, so the rerun
    reads the copy's inputs; one that read the original inputs would
    rewrite resolved_config.ini with other relative paths.
    """
    original = BENCH_OUT / workload / "out"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / workload
        shutil.copytree(original.parent, copy)
        for path in (copy / "out").rglob("*"):
            if path.is_file() and path.name not in keep:
                path.unlink()
        code = _python("-m", "sentistock", command, "--config", copy / "out" / "resolved_config.ini").returncode
        if code != 0:
            raise SmokeFailure(f"{command} on the copy of {workload} exited {code}")
        want, got = _tree(original), _tree(copy / "out")
        differ = sorted(name for name in want.keys() | got.keys() if want.get(name, ...) != got.get(name, ...))
        if differ:
            raise SmokeFailure(f"the copy of {workload} differs from the original in {', '.join(differ)}")


def compare_tree_replays() -> None:
    # compare_paper's tree holds its inputs (inputs/) and compare's outputs (out/).
    _replay("compare_paper", "compare", keep=("resolved_config.ini",))


def predict_tree_replays() -> None:
    # train_predict_wide's out/ holds train's checkpoint.json and the
    # resolved_config.ini of predict, its last command, which names the
    # checkpoint relative to out/.
    _replay("train_predict_wide", "predict", keep=("checkpoint.json", "resolved_config.ini"))


def _config_with(config: Path, settings: dict[str, str]) -> str:
    """config.ini's [run] section with each of ``settings`` set: its line
    rewritten where the file has one, appended where not."""
    lines, left = [], dict(settings)
    for line in config.read_text(encoding="utf-8").splitlines():
        key = line.partition("=")[0].strip()
        lines.append(f"{key} = {left.pop(key)}" if key in left else line)
    return "\n".join(lines + [f"{key} = {value}" for key, value in left.items()]) + "\n"


def diverging_runs() -> None:
    cases = (
        ("compare_paper", "compare", DIVERGING),
        ("train_predict_wide", "train", DIVERGING),
        ("compare_paper", "compare", ONE_BATCH),
        ("compare_paper", "train", ONE_BATCH),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for n, (workload, command, settings) in enumerate(cases):
            # The new config sits beside the original, so its input paths
            # still resolve, and is deleted after the run, so the inputs'
            # hash a later benchmark run records does not see it; --out
            # keeps the smoke runs' trees untouched.
            inputs = BENCH_OUT / workload / "inputs"
            diverging = inputs / "diverging.ini"
            diverging.write_text(_config_with(inputs / "config.ini", settings), encoding="utf-8")
            out = Path(tmp) / f"{n}-{command}"
            try:
                proc = _python("-m", "sentistock", command, "--config", diverging, "--out", out,
                               stderr=subprocess.PIPE)
            finally:
                diverging.unlink()
            print(proc.stderr, end="")
            err = proc.stderr.splitlines()
            written = sorted(p.name for p in out.rglob("*") if p.is_file())
            if (proc.returncode != 3 or len(err) != 1 or not err[0].startswith("error: training loss became non-finite")
                    or written):
                setting = ", ".join(f"{key} = {value}" for key, value in settings.items())
                raise SmokeFailure(f"{command} on {workload} with {setting} exited {proc.returncode} with "
                                   f"{len(err)} stderr lines and wrote {written}; expected 3, one error: line "
                                   "and no file")


CHECKS = (
    ("Benchmark smoke runs", smoke_runs),
    ("Checkpoints read back", checkpoints_read_back),
    ("A copied run tree replays", compare_tree_replays),
    ("A copied run tree replays predict", predict_tree_replays),
    ("A diverging run prints one error line", diverging_runs),
)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for name, check in CHECKS:
        print(f"== {name}", flush=True)
        try:
            check()
        except SmokeFailure as exc:
            print(f"smoke check failed: {name}: {exc}", file=sys.stderr)
            return 1
    print("every smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
