"""numpy, whose code runs when the program first reads one of its attributes.

Most commands and suites check integer and rational facts and never call
numpy, so their start-up need not pay for its import.  The module is found
and registered in `sys.modules` here, when twoside is imported, so a missing
numpy still fails at import rather than in the middle of a run.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_module(name: str) -> ModuleType:
    """The module `name`, executed at the first access of an attribute.

    This is the `importlib.util.LazyLoader` recipe of the importlib
    documentation; once loaded it is the ordinary module object.  A module
    already in `sys.modules` is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_module("numpy")
