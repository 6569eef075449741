"""Permutation symmetry of exactly solvable N-particle oscillator models.

The package imports none of its modules. The CLI binds them, and they bind
numpy, with :func:`lazy_import`: each runs on first use, so a command runs
only the modules it calls, and the CLI's PERMSYM_THREADS cap acts before
numpy loads.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_import(name):
    """Module ``name``, run on its first attribute access unless imported (or
    blocked) already; a submodule is bound on its parent, as ``import`` does."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # before it runs
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
