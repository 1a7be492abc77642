"""midspec: single-delay retarded equations with an assigned dominant root
of maximal multiplicity — design, spectral certification, a priori bounds,
and method-of-steps simulation.

Importing the package loads no submodule and no numpy: import the layer
you use (`midspec.quasipoly`, `midspec.spectral`, `midspec.bounds`,
`midspec.sim`, `midspec.cli`), and a command loads only the layers it runs.
LocalizationError lives here, for `spectral` to raise and `cli` to catch.
"""

__version__ = "0.1.0"


class LocalizationError(RuntimeError):
    """Raised when counting, refinement, or certification cannot conclude."""
