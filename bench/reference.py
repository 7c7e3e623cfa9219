"""Fixed reference work, timed between a workload's iterations.

A shared host's speed swings by up to about 1.9x, in phases of a second to
minutes. ``run.py`` divides a workload's mean iteration time by the mean
time of this work, taken between the same iterations, to get ``wall_ref``.

The work runs in a helper process that never imports the program. The
worker starts it before it imports the program, with the environment as
found, so no change to the program, its imports or its BLAS thread settings
can move it. There are two kinds, one for each way the workloads use the
host, because the host's slow phases slow them by different factors:

``interpreter``  JSON and string work plus numpy calls the size of an LSTM
                 step, on one thread (compare_paper, sentiment_corpus).
``blas``         GEMMs large enough for BLAS to run on all its threads
                 (train_predict_wide, whose hidden-128, batch-64 steps do).

Run as ``python reference.py KIND``: for every line read from standard
input it does the work once and writes the seconds it took.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

#: About 0.3 s of each kind on a 2-vCPU shared host.
JSON_ROUNDS = 40
LSTM_STEPS = 4_000
GEMM_ROUNDS = 300


def interpreter_work(np) -> None:
    records = [{"id": i, "text": f"word {i} and more text here", "value": i * 0.5} for i in range(2_000)]
    words = 0
    for _ in range(JSON_ROUNDS):
        words += sum(len(r["text"].split()) for r in json.loads(json.dumps(records)))
    x = np.sin(np.arange(16 * 47)).reshape(16, 47)
    w = 0.1 * np.cos(np.arange(47 * 128)).reshape(47, 128)
    h = np.zeros((16, 32))
    for _ in range(LSTM_STEPS):
        gates = 1.0 / (1.0 + np.exp(-(x @ w)))
        h = 0.5 * h + np.tanh(gates[:, :32]) * gates[:, 32:64]
    if words != JSON_ROUNDS * 6 * len(records) or not np.isfinite(h).all():
        raise RuntimeError("interpreter reference work gave a wrong result")


def blas_work(np) -> None:
    a = np.sin(np.arange(64 * 158)).reshape(64, 158)
    b = 0.1 * np.cos(np.arange(158 * 512)).reshape(158, 512)
    total = 0.0
    for _ in range(GEMM_ROUNDS):
        c = np.tanh(a @ b)
        total += float((c.T @ a)[0, 0])
    if not np.isfinite(total):
        raise RuntimeError("blas reference work gave a wrong result")


KINDS = {"interpreter": interpreter_work, "blas": blas_work}


class Reference:
    """The helper process; ``time()`` runs the work once and returns its seconds."""

    def __init__(self, kind: str, env: dict[str, str]):
        if kind not in KINDS:
            raise ValueError(f"unknown reference kind {kind!r}; choose from {', '.join(KINDS)}")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, kind], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        """End of input makes the helper exit; wait until it has."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main(kind: str) -> int:
    import numpy as np

    work = KINDS[kind]
    for _ in sys.stdin:
        start = perf_counter()
        work(np)
        sys.stdout.write(f"{perf_counter() - start!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
