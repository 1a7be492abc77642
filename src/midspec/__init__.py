"""midspec: single-delay retarded equations with an assigned dominant root
of maximal multiplicity — design, spectral certification, a priori bounds,
and method-of-steps simulation.

Importing the package loads no submodule and no numpy: import the layer
you use (`midspec.quasipoly`, `midspec.spectral`, `midspec.bounds`,
`midspec.sim`, `midspec.cli`), and a command loads only the layers it runs.
"""

__version__ = "0.1.0"
