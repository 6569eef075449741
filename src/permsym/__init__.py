"""Permutation symmetry of exactly solvable N-particle oscillator models.

The package imports none of its modules.  Only code that computes with
floats imports numpy: ``ci``, and the float-matrix functions of
``oscillator`` and ``levelsym``.  The integer answers need no numpy.
"""

__version__ = "0.1.0"
