"""Permutation symmetry of exactly solvable N-particle oscillator models.

The package imports none of its modules, so that the command-line entry
point can apply the PERMSYM_THREADS cap before any numerical library loads.
"""

__version__ = "0.1.0"
