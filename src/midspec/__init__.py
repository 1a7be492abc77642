"""midspec: single-delay retarded equations with an assigned dominant root
of maximal multiplicity — design, spectral certification, a priori bounds,
and method-of-steps simulation.

Submodules are imported lazily, so `import midspec` loads no numpy: a
command loads only the layers it runs.
"""

__version__ = "0.1.0"

_SUBMODULES = ("quasipoly", "spectral", "bounds", "sim", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
