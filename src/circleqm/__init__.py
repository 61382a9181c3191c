"""Quantum mechanics on the cylinder phase space S^1 x R.

Fractional-sector Hilbert spaces over the circle, two coherent-state
families with closed-form expectation values, the Weil-Zak periodization,
a q-deformed ladder algebra, and exact theta-function time evolution --
every closed form backed by an independent quadrature or series oracle.
"""

__version__ = "0.1.0"
