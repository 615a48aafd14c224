"""Exact combinatorics of musical scales derived from shift spaces.

The library builds vertex shifts and shifts of finite type, derives the
integer compositions ("scales") their languages induce via the distinguished
symbol rule, and computes transversal and orbital counting series for those
scale classes, all in exact integer arithmetic.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"


def _lazy(name: str):
    """Register submodule ``name`` so that it executes on first attribute access.

    A submodule that is already imported is returned as it is.  An ``import
    scaleshift.<name>`` statement reads ``__spec__`` and so executes the
    module at once: no eagerly imported module may contain one.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[fullname] = module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


# only ``scaleshift verify`` runs the oracle and the reference suite
oracle = _lazy("oracle")
verify = _lazy("verify")
