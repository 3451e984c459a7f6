"""Discretized ergodic and topological analyses of interval and torus maps.

The package builds cell partitions of the unit interval or torus, pushes
measures through the induced cell-to-cell transfer operator, and asks
structural questions about the underlying map: how many minimal invariant
sets survive discretization, whether time averages converge and to what,
how stationary measures sit relative to the terminal communicating
classes, and how much linear cancellation the iterates of a test function
admit (none for rigid rotations, lots for expanding maps).
"""

__version__ = "0.1.0"
