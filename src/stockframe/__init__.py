"""Adaptive frequency partitions, orthonormal bases and non-stationary
frames on periodized grids, with certified frame bounds and exact
round trips.

A public name is resolved lazily from the ``__all__`` of the first
submodule below that exports it (``synthesize`` is the basis's), so that
importing the package (for the command-line entry point in particular)
does not pull numpy before the STOCKFRAME_THREADS cap has been applied.
"""

from importlib import import_module

_MODULES = ("spectral", "containers", "partition", "basis", "window", "frame1d", "tiling", "acceptance")

__version__ = "0.1.0"


def _modules():
    return (import_module(f".{name}", __name__) for name in _MODULES)


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return import_module(f".{name}", __name__)
    if name == "__all__":
        return sorted({x for module in _modules() for x in module.__all__}) + sorted([*_MODULES, "cli"])
    for module in _modules():
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __getattr__("__all__")
