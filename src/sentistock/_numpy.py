"""numpy, loaded on its first attribute access.

``lstm``, ``features`` and ``evaluation`` bind ``np`` from here, so
``import sentistock`` and the ``ingest`` and ``sentiment`` commands, which
never touch an array, do not load numpy and OpenBLAS. It uses the standard
library's ``importlib.util.LazyLoader`` rather than ``import numpy`` inside
each function: every module-level ``from .x import y`` binding stays where
it is, so code that wraps those bindings sees the same calls, and after the
first access ``np`` is the plain numpy module, so a hot loop pays nothing.
"""

import importlib.util
import sys
from types import ModuleType


def lazy_module(name: str) -> ModuleType:
    """Module ``name``, executed on its first attribute access; the module
    itself if it is already imported. Raises ``ModuleNotFoundError`` now,
    as ``import`` does, when ``name`` is not installed."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")
