"""Every walkthrough under demos/, and the README library tour, runs clean as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import write_cli_fixture

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


def run_clean(script, cwd):
    """Run a script with warnings as errors; it must exit 0 and print nothing to stderr.

    A warning raised where it cannot propagate, such as a ResourceWarning
    from a file closed by the collector, is printed without failing the run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    run_clean(demo, tmp_path)


def test_readme_library_tour_runs_clean(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    write_cli_fixture(tmp_path, n_days=120)  # prices.csv, tweets.jsonl, lexicon.tsv; lookback 30 fits
    script = tmp_path / "tour.py"
    script.write_text(tour, encoding="utf-8")
    run_clean(script, tmp_path)
