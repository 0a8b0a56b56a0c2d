"""vel: vertex energies of graphs and of their splitting/shadow derived graphs.

Every name has one import path, its module; ``import vel`` alone loads none:

- vel.graphs: the immutable Graph, the graph6 and edge-list codecs, the
  adjacency matrix and the graph family generators.
- vel.spectral: the one-sided round-robin Jacobi eigensolver, Spectrum, and
  the per-vertex and total energies.
- vel.derived: the m-splitting and m-shadow as blow-ups B (x) A of the base
  by a BlockPattern B, and the closed-form predictors.
- vel.verify: the scaling laws, the default corpus and run_suite.
- vel.cli: the ``vel`` command (energy, derive, verify).
"""

__version__ = "0.1.0"
