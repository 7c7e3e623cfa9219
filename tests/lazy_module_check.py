"""Check ``sentistock._numpy.lazy_module`` against a stub package.

Run as ``python -W error tests/lazy_module_check.py`` on any supported
Python, numpy installed or not: it loads ``src/sentistock/_numpy.py`` by
path, with a stub ``numpy`` package first on ``sys.path`` whose
``__init__`` imports its own submodule, as numpy's does. It prints ``ok``
when every check holds and fails with a traceback otherwise.
"""

import importlib.util
import sys
import tempfile
import types
from pathlib import Path

HELPER = Path(__file__).resolve().parent.parent / "src" / "sentistock" / "_numpy.py"

STUB_INIT = """\
import sys
sys.stub_runs = getattr(sys, "stub_runs", 0) + 1
from . import linalg
from .linalg import norm
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        stub = Path(root) / "numpy"
        stub.mkdir()
        (stub / "__init__.py").write_text(STUB_INIT)
        (stub / "linalg.py").write_text("def norm(x):\n    return abs(x)\n")
        sys.path.insert(0, root)

        spec = importlib.util.spec_from_file_location("lazy_module_helper", HELPER)
        helper = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(helper)  # binds helper.np, unloaded
        np = helper.np
        assert np is sys.modules["numpy"]
        assert type(np) is not types.ModuleType, type(np)
        assert "numpy.linalg" not in sys.modules and not hasattr(sys, "stub_runs")

        assert np.norm(-2) == 2  # the first attribute access runs the package
        assert type(np) is types.ModuleType, type(np)
        assert np.linalg is sys.modules["numpy.linalg"]
        assert np.norm(-3) == 3 and sys.stub_runs == 1

        assert helper.lazy_module("numpy") is np  # already imported: the module itself
        try:
            helper.lazy_module("sentistock_no_such_module")
        except ModuleNotFoundError as exc:
            assert exc.name == "sentistock_no_such_module", exc.name
        else:
            raise AssertionError("a missing module did not raise")
    print("ok")


if __name__ == "__main__":
    main()
