"""Adaptive frequency partitions, orthonormal bases and non-stationary
frames on periodized grids, with certified frame bounds and exact
round trips.

Submodule attributes are resolved lazily so that importing the package
(for the command-line entry point in particular) does not pull numpy
before the STOCKFRAME_THREADS cap has been applied.
"""

from importlib import import_module

_EXPORTS = {
    "spectral": [
        "FrequencyGrid", "TimeSamples", "SpectralSignal",
        "to_spectrum", "from_spectrum", "poisson_residual",
    ],
    "containers": [
        "ContainerError", "write_sfr1", "read_sfr1", "read_sfr1_all",
        "write_sfr2", "read_sfr2", "write_csv_signal", "read_csv_signal",
    ],
    "partition": [
        "coerce_alpha", "floor_power", "PartitionInterval", "AlphaPartition",
        "build_partition", "partition_covering", "covering_bounds_hold",
    ],
    "basis": [
        "BasisIndex", "BandLayout", "DostCoefficients", "band_layout",
        "basis_element", "analyze_naive", "analyze_fast", "synthesize",
        "gram_matrix", "gram_deviation", "concentration",
    ],
    "window": [
        "Window", "gaussian_window", "truncated_gaussian", "table_window",
        "WindowStack", "build_stack", "AdmissibilityReport",
        "admissibility", "StackBounds", "stack_sum_bounds", "gaussian_floor",
    ],
    "frame1d": [
        "FrameSpec", "make_frame_spec", "FrameCoefficients", "frame_element",
        "analyze", "frame_operator_apply", "walnut_apply",
        "WalnutBoundReport", "walnut_bounds", "FrameBounds",
        "frame_bounds_eigen", "ConjugateFilter", "conjugate_filter",
        "FrameGapError", "reconstruct",
    ],
    "tiling": [
        "BoxIndex", "NdTiling", "admissible_ells", "build_tiling",
        "NdFrameSpec", "make_nd_frame_spec", "to_spectrum_nd",
        "from_spectrum_nd", "element_nd", "analyze_nd", "synthesize_nd",
        "frame_operator_apply_nd", "walnut_apply_nd", "NdBoundReport",
        "walnut_bounds_nd", "NdConjugate", "conjugate_filter_nd",
        "reconstruct_nd",
    ],
    "acceptance": ["CriterionResult", "run_criterion", "run_all"],
}

_ATTR_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = set(_EXPORTS) | {"cli"}

__version__ = "0.1.0"
__all__ = sorted(_ATTR_HOME) + sorted(_SUBMODULES)


def __getattr__(name: str):
    if name in _ATTR_HOME:
        return getattr(import_module(f".{_ATTR_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
