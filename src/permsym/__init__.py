"""Permutation symmetry of exactly solvable N-particle oscillator models.

The package imports none of its modules, and they load numpy on first use
(:func:`lazy_numpy`), so the CLI's PERMSYM_THREADS cap acts before numpy loads.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_numpy():
    """numpy, run on its first attribute access unless imported (or blocked) already."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)  # before it runs
    spec.loader.exec_module(module)
    return module
