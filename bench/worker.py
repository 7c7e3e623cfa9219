"""One workload's iterations in a fresh process, so memory belongs to it.

Started by ``run.py`` as ``python worker.py SPEC.json``. It drives the
program only through ``sentistock.cli.main``: a closed loop with one client,
each iteration starting when the previous one has ended. The first
iteration warms caches and is checked but not timed. Every iteration
starts from an empty output directory, and its artifacts are checked and
hashed after its timer stops. The result goes to the spec's result path.

Between iterations, outside their timers, the worker times a fixed piece of
reference work (``reference.py``) and, when the spec asks for it, the set-up
of a fresh interpreter (``measure_setup``). Spreading these over the whole
run, rather than taking them all at its start, lets them see the same host
speed as the iterations.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

from reference import Reference
from tracer import Tracer
from workloads import check_outputs, tree_sha256

MIN_TIMED = 3
#: Stop iterating after this long whatever ``seconds`` asks, so a run ends in time.
HARD_LIMIT_S = 150.0
#: Records the absolute paths of inputs and outputs, so it is not an artifact.
NOT_ARTIFACTS = ("resolved_config.ini",)
SETUP_CODE = "import sentistock.cli, sys, time; sys.stdout.write(repr(time.monotonic()))"


def measure_setup(env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter until ``sentistock.cli`` is imported."""
    start = monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import sentistock.cli: {proc.stderr.strip()}")
    return float(proc.stdout) - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    # Before the program is imported, so nothing it sets reaches these.
    env = dict(os.environ)
    reference = Reference(spec["reference"], env)
    try:
        return run(spec, reference, env)
    finally:
        reference.close()


def run(spec: dict, reference: Reference, env: dict[str, str]) -> int:
    import sentistock.cli as cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    out = Path(spec["out"])
    iterations, setup = [], []
    # refs[i] is taken before iteration i and refs[i + 1] after it.
    refs = [reference.time()]
    started = perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer:
            tracer.reset()
        codes, error = [], None
        t0 = perf_counter()
        try:
            for argv in spec["steps"]:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        except Exception:  # a traceback is a failed iteration, not a stopped run
            error = traceback.format_exc(limit=4)
        wall_s = perf_counter() - t0

        problems, observed = ([], {}) if error or codes[-1] != 0 else check_outputs(spec["workload"], out, spec["expected"])
        if error:
            problems.append(error)
        elif codes[-1] != 0:
            problems.append(f"exit codes {codes}")
        iterations.append({
            "wall_s": wall_s,
            "timed": bool(iterations),
            "problems": problems,
            "artifacts_sha256": tree_sha256(out, NOT_ARTIFACTS),
            "observed": observed,
            "layers": tracer.summary(out) if tracer else None,
        })
        refs.append(reference.time())
        if spec["setup"]:
            setup.append(measure_setup(env))
        elapsed = perf_counter() - started
        timed = len(iterations) - 1
        if elapsed >= HARD_LIMIT_S or (elapsed >= spec["seconds"] and timed >= MIN_TIMED):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"iterations": iterations, "peak_rss_mb": peak_rss_mb, "ref_s": refs, "setup_s": setup}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
