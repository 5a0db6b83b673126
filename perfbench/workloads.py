"""The four benchmark workloads, driven through the public stockframe API.

Each workload is a round-robin mix of configs with equal weights, listed
cheapest first, so that with k configs the median request falls inside
the middle-cost config and the 90th percentile inside the heaviest one.
All use mu = 0.5; "tgauss" is ``truncated_gaussian(0.1)``.

A workload provides:

- ``make_inputs(rng, io_dir)``: per config, a pool of seeded inputs
  (generated arrays, or SFR1/SFR2 files written without the library);
- ``setup(t)``: the per-config objects built once before the stream;
- ``request(ci, state, item, t)``: one request, spans opened on ``t``;
- ``check(ci, item, result)``: an ``Outcome`` computed independently of
  the library wherever the output allows it;
- ``counts(state)``: work counts derived from public data, which repeat
  exactly for the same configs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from stockframe import basis, containers, frame1d, partition, spectral, tiling, window

MU = 0.5


@dataclass(frozen=True)
class Outcome:
    """ok: the output meets the workload's check.

    honest: the program did not return a wrong result as a right one.  A
    roundtrip that reports its own error above tolerance (the CLI's exit
    3) is a failed request but an honest one.
    """

    ok: bool
    honest: bool


def make_window(name: str) -> window.Window:
    return window.gaussian_window() if name == "gaussian" else window.truncated_gaussian(0.1)


def _noise(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _interleave(values: np.ndarray) -> bytes:
    flat = np.empty(2 * values.size, dtype="<f8")
    flat[0::2] = values.real.ravel()
    flat[1::2] = values.imag.ravel()
    return flat.tobytes()


def sfr_header(shape: tuple[int, ...]) -> bytes:
    """Time-domain SFR1 header for 1-d shapes, SFR2 otherwise."""
    if len(shape) == 1:
        return b"SFR1" + struct.pack("<IB", shape[0], containers.DOMAIN_TIME)
    return b"SFR2" + struct.pack(f"<I{len(shape)}IB", len(shape), *shape,
                                 containers.DOMAIN_TIME)


def write_sfr(path: Path, values: np.ndarray) -> None:
    path.write_bytes(sfr_header(values.shape) + _interleave(values))


def read_sfr(path: Path, shape: tuple[int, ...]) -> np.ndarray | None:
    """Decode a file the library wrote; None when header or size is wrong."""
    raw = path.read_bytes()
    head = sfr_header(shape)
    if raw[:len(head)] != head or len(raw) != len(head) + 16 * math.prod(shape):
        return None
    flat = np.frombuffer(raw, dtype="<f8", offset=len(head))
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape)


@dataclass(frozen=True)
class FileItem:
    src: Path
    dst: Path
    values: np.ndarray


def _file_pool(rng, io_dir: Path, tag: str, shape, pool: int) -> list[FileItem]:
    items = []
    for j in range(pool):
        values = _noise(rng, shape)
        src, dst = io_dir / f"{tag}-{j}.in", io_dir / f"{tag}-{j}.out"
        write_sfr(src, values)
        items.append(FileItem(src, dst, values))
    return items


def _roundtrip_outcome(item: FileItem, rel: float, tol: float) -> Outcome:
    """Compare the written output with the input, and with the error the
    program reported for it."""
    out = read_sfr(item.dst, item.values.shape)
    if out is None:
        return Outcome(False, False)
    err = float(np.linalg.norm(out - item.values) / np.linalg.norm(item.values))
    agree = abs(err - rel) <= 1e-12 + 1e-6 * rel
    return Outcome(err <= tol, agree and (rel > tol) == (err > tol))


# ----------------------------------------------------------- 1D frames

@dataclass(frozen=True)
class FrameConfig:
    alpha: Fraction
    window: str
    q: int

    @property
    def label(self) -> str:
        return f"{self.window} alpha={self.alpha} q={self.q}"


def _build_frame(cfg: FrameConfig, n: int, t):
    """make_frame_spec; a traced run also times the stack and ladder it hides."""
    win = make_window(cfg.window)
    with t.span("frame1d.make_frame_spec"):
        spec = frame1d.make_frame_spec(win, MU, cfg.q, cfg.alpha, n)
    if t.enabled:
        with t.span("window.build_stack", probe=True):
            window.build_stack(win, MU, cfg.alpha, n)
        # the ladder limit build_stack uses for this grid
        with t.span("partition.partition_covering", probe=True):
            partition.partition_covering(cfg.alpha, int(math.floor(n // 2 / MU)) + 2)
    return spec


def _frame_setup(configs, n: int, t) -> list:
    """Build and certify one spec per config."""
    specs = []
    for cfg in configs:
        spec = _build_frame(cfg, n, t)
        with t.span("window.admissibility"):
            report = window.admissibility(spec.stack)
        if not report.passed:
            raise RuntimeError(f"{cfg.label}: stack is not admissible")
        specs.append(spec)
    return specs


def _frame_counts(specs) -> dict[str, float]:
    bands = [arr for spec in specs for arr in spec.stack.bands.values()]
    nnz = sum(int(np.count_nonzero(arr)) for arr in bands)
    return {
        "partition.intervals": sum(len(s.partition.intervals) for s in specs),
        "window.stack_bands": len(bands),
        "window.stack_nnz": nnz,
        "window.stack_fill": nnz / sum(arr.size for arr in bands),
        "window.stack_bytes": sum(arr.nbytes for arr in bands),
        "frame1d.coefficients": sum(s.k_count(p) for s in specs for p in s.p_range),
    }


class Frame1dStream:
    """The ``stockframe roundtrip`` path: read_sfr1, reconstruct, write_sfr1.

    Set-up builds one spec per config; each request rebuilds the
    conjugate filter, as the CLI does.  Loads the frame1d analysis fold
    and FFT, the synthesis spread and the conjugate filter; window and
    partition work lands only in set-up.
    """

    name = "frame1d-stream"
    n = 2048
    tol = 1e-6  # the CLI's default --tol
    pool = 4
    configs = (
        FrameConfig(Fraction(1), "tgauss", 4),
        FrameConfig(Fraction(1), "gaussian", 8),
        # rel_err ~1e-4: the conjugate-filter dual is inexact off the
        # painless regime, so these requests fail their check
        FrameConfig(Fraction(1, 2), "gaussian", 2),
        FrameConfig(Fraction(1, 2), "tgauss", 4),
        FrameConfig(Fraction(1, 2), "gaussian", 8),
        FrameConfig(Fraction(0), "tgauss", 4),
        FrameConfig(Fraction(0), "gaussian", 8),
    )

    def make_inputs(self, rng, io_dir: Path):
        return [_file_pool(rng, io_dir, f"f1d{ci}", (self.n,), self.pool)
                for ci in range(len(self.configs))]

    def setup(self, t):
        return _frame_setup(self.configs, self.n, t)

    def request(self, ci, spec, item: FileItem, t):
        with t.span("containers.read_sfr1"):
            signal = containers.read_sfr1(item.src)
        with t.span("frame1d.reconstruct"):
            rec, rel = frame1d.reconstruct(spec, signal)
        with t.span("spectral.from_spectrum"):
            out = spectral.from_spectrum(rec)
        with t.span("containers.write_sfr1"):
            containers.write_sfr1(item.dst, out)
        if t.enabled:
            with t.span("frame1d.conjugate_filter", probe=True):
                frame1d.conjugate_filter(spec)
            with t.span("frame1d.analyze", probe=True):
                coeffs = frame1d.analyze(spec, signal)
            with t.span("frame1d.synthesize", probe=True):
                frame1d.synthesize(spec, coeffs)
        return rel

    def check(self, ci, item: FileItem, rel) -> Outcome:
        return _roundtrip_outcome(item, rel, self.tol)

    def counts(self, specs) -> dict[str, float]:
        return _frame_counts(specs)


class FrameDesign:
    """The ``stockframe frame-bounds`` path, with a fresh spec per request.

    Each request builds the spec, scans admissibility, takes the Walnut
    bounds and the dense eigenbounds, and probes walnut_apply against
    frame_operator_apply.  The eigensolve and the Walnut tail dominate;
    the stacks are tiny.  Set-up builds and certifies each config's spec
    once, as a design loop checks its grid before iterating.
    """

    name = "frame-design"
    n = 48
    pool = 2
    # q=3 at alpha=3/10 makes the mix odd, so the median sits inside the
    # alpha=3/10 configs rather than on the 1/2 | 3/10 boundary
    configs = tuple(FrameConfig(Fraction(a), "gaussian", q) for a, qs in
                    (("1", (2, 4)), ("1/2", (2, 4)), ("3/10", (2, 3, 4)), ("0", (2, 4)))
                    for q in qs)

    def make_inputs(self, rng, io_dir: Path):
        grid = spectral.FrequencyGrid(self.n)
        return [[spectral.SpectralSignal(grid, _noise(rng, self.n)) for _ in range(self.pool)]
                for _ in self.configs]

    def setup(self, t):
        return _frame_setup(self.configs, self.n, t)

    def request(self, ci, _spec, f, t):
        spec = _build_frame(self.configs[ci], self.n, t)
        with t.span("window.admissibility"):
            adm = window.admissibility(spec.stack)
        with t.span("frame1d.walnut_bounds"):
            wb = frame1d.walnut_bounds(spec)
        with t.span("frame1d.frame_bounds_eigen"):
            eig = frame1d.frame_bounds_eigen(spec)
        with t.span("frame1d.walnut_apply"):
            shifted = frame1d.walnut_apply(spec, f)
        with t.span("frame1d.frame_operator_apply"):
            direct = frame1d.frame_operator_apply(spec, f)
        return adm, wb, eig, shifted, direct

    def check(self, ci, f, result) -> Outcome:
        adm, wb, eig, shifted, direct = result
        defect = float(np.linalg.norm(shifted.coeffs - direct.coeffs) / np.linalg.norm(f.coeffs))
        ok = (adm.passed and wb.lower <= eig.lower + 1e-9 and eig.upper <= wb.upper + 1e-9
              and eig.lower > 0 and defect < 1e-8)
        return Outcome(ok, ok)

    def counts(self, specs) -> dict[str, float]:
        shift_terms = 0
        for spec in specs:
            for p in spec.p_range:
                nz = np.flatnonzero(spec.stack.band(p))
                if nz.size:
                    limit = int(nz[-1] - nz[0]) // (spec.q * spec.width(p))
                    # walnut_apply: |m| <= limit; walnut_bounds: 1 <= m <= min(limit, k_max)
                    shift_terms += 2 * limit + 1 + min(limit, spec.walnut_k_max)
        return {
            **_frame_counts(specs),
            "frame1d.shift_terms": shift_terms,
            "frame1d.eigen_applies": sum(spec.grid.size for spec in specs),
        }


# ------------------------------------------------------ orthonormal basis

@dataclass(frozen=True)
class BasisConfig:
    alpha: Fraction

    @property
    def label(self) -> str:
        return f"alpha={self.alpha}"


class BasisLong:
    """The orthonormal basis on long signals: analyze_fast then synthesize.

    Only partition, basis and spectral run.  At alpha=0 there are n-1
    unit bands and analyze_fast rebuilds the layout on every call; one
    FFT of the signal is the floor.  Set-up builds each config's layout.
    """

    name = "basis-long"
    n = 1 << 16
    tol = 1e-10
    pool = 2
    configs = (BasisConfig(Fraction(1)), BasisConfig(Fraction(1, 2)), BasisConfig(Fraction(0)))

    def make_inputs(self, rng, io_dir: Path):
        grid = spectral.FrequencyGrid(self.n)
        return [[spectral.TimeSamples(grid, _noise(rng, self.n)) for _ in range(self.pool)]
                for _ in self.configs]

    def _ladder_probe(self, alpha, t):
        if t.enabled:
            with t.span("partition.partition_covering", probe=True):
                partition.partition_covering(alpha, self.n // 2)

    def setup(self, t):
        layouts = []
        for cfg in self.configs:
            with t.span("basis.band_layout"):
                layouts.append(basis.band_layout(cfg.alpha, self.n))
            self._ladder_probe(cfg.alpha, t)
        return layouts

    def request(self, ci, _layout, x, t):
        alpha = self.configs[ci].alpha
        with t.span("basis.analyze_fast"):
            coeffs = basis.analyze_fast(alpha, x)
        with t.span("basis.synthesize"):
            y = basis.synthesize(coeffs)
        if t.enabled:
            # the layout analyze_fast rebuilds, and the single-FFT floor
            with t.span("basis.band_layout", probe=True):
                basis.band_layout(alpha, self.n)
            self._ladder_probe(alpha, t)
            with t.span("spectral.to_spectrum", probe=True):
                spectrum = spectral.to_spectrum(x)
            with t.span("spectral.from_spectrum", probe=True):
                spectral.from_spectrum(spectrum)
        return y

    def check(self, ci, x, y) -> Outcome:
        # compare on the Nyquist-free subspace: drop the -n/2 row
        diff = np.fft.fft(y.values - x.values)
        ref = np.fft.fft(x.values)
        diff[self.n // 2] = ref[self.n // 2] = 0.0
        ok = bool(np.linalg.norm(diff) <= self.tol * np.linalg.norm(ref))
        return Outcome(ok, ok)

    def counts(self, layouts) -> dict[str, float]:
        return {
            "partition.intervals": sum(len(lay.partition.intervals) for lay in layouts),
            "basis.bands": sum(len(lay.bands) for lay in layouts),
            "basis.distinct_widths": sum(len({lay.width(p) for p in lay.bands}) for lay in layouts),
        }


# ----------------------------------------------------------- n-D frames

@dataclass(frozen=True)
class NdConfig:
    d: int
    n: int
    window: str
    q: int

    @property
    def label(self) -> str:
        return f"d={self.d} n={self.n} {self.window} q={self.q}"


class NdStream:
    """The ``stockframe roundtrip2d`` path, extended to 3D.

    Set-up builds each spec and certifies it with walnut_bounds_nd; each
    request reads an SFR2 field, reconstructs it and writes it back.
    tiling is the only frame layer working here.
    """

    name = "nd-stream"
    tol = 1e-10
    pool = 2
    configs = (NdConfig(2, 64, "gaussian", 8), NdConfig(2, 128, "tgauss", 4),
               NdConfig(3, 16, "tgauss", 4))

    def make_inputs(self, rng, io_dir: Path):
        return [_file_pool(rng, io_dir, f"nd{ci}", (cfg.n,) * cfg.d, self.pool)
                for ci, cfg in enumerate(self.configs)]

    def setup(self, t):
        specs = []
        for cfg in self.configs:
            with t.span("tiling.make_nd_frame_spec"):
                spec = tiling.make_nd_frame_spec(make_window(cfg.window), MU, cfg.q, cfg.d, cfg.n)
            with t.span("tiling.walnut_bounds_nd"):
                report = tiling.walnut_bounds_nd(spec)
            if not report.lower > 0:
                raise RuntimeError(f"{cfg.label}: certified lower bound is not positive")
            specs.append(spec)
        return specs

    def request(self, ci, spec, item: FileItem, t):
        with t.span("containers.read_sfr2"):
            values, domain = containers.read_sfr2(item.src)
        with t.span("tiling.to_spectrum_nd"):
            fhat = tiling.to_spectrum_nd(values)
        with t.span("tiling.reconstruct_nd"):
            rec, rel = tiling.reconstruct_nd(spec, fhat)
        with t.span("tiling.from_spectrum_nd"):
            out = tiling.from_spectrum_nd(rec)
        with t.span("containers.write_sfr2"):
            containers.write_sfr2(item.dst, out, domain)
        if t.enabled:
            with t.span("tiling.conjugate_filter_nd", probe=True):
                tiling.conjugate_filter_nd(spec)
            with t.span("tiling.analyze_nd", probe=True):
                coeffs = tiling.analyze_nd(spec, fhat)
            with t.span("tiling.synthesize_nd", probe=True):
                tiling.synthesize_nd(spec, coeffs)
        return rel

    def check(self, ci, item: FileItem, rel) -> Outcome:
        return _roundtrip_outcome(item, rel, self.tol)

    def counts(self, specs) -> dict[str, float]:
        return {
            "tiling.boxes": sum(len(s.tiling.boxes) for s in specs),
            "tiling.coefficients": sum(s.box_period(b) ** s.d
                                       for s in specs for b in s.tiling.boxes),
            "tiling.box_stack_bytes": sum(len(s.tiling.boxes) * s.n ** s.d * s.dc_factor.itemsize
                                          for s in specs),
        }


WORKLOADS = {wl.name: wl for wl in (Frame1dStream(), FrameDesign(), BasisLong(), NdStream())}

# Spans a traced run can open, as <module>.<function>; each becomes a
# per-layer "<name>.s" metric.
LAYER_CALLS = (
    "partition.partition_covering",
    "basis.band_layout", "basis.analyze_fast", "basis.synthesize",
    "spectral.to_spectrum", "spectral.from_spectrum",
    "window.build_stack", "window.admissibility",
    "frame1d.make_frame_spec", "frame1d.conjugate_filter", "frame1d.analyze",
    "frame1d.synthesize", "frame1d.reconstruct", "frame1d.frame_bounds_eigen",
    "frame1d.walnut_bounds", "frame1d.walnut_apply", "frame1d.frame_operator_apply",
    "tiling.make_nd_frame_spec", "tiling.walnut_bounds_nd", "tiling.conjugate_filter_nd",
    "tiling.analyze_nd", "tiling.synthesize_nd", "tiling.reconstruct_nd",
    "tiling.to_spectrum_nd", "tiling.from_spectrum_nd",
    "containers.read_sfr1", "containers.write_sfr1",
    "containers.read_sfr2", "containers.write_sfr2",
)

COUNTS = {
    "partition.intervals": "count",
    "basis.bands": "count",
    "basis.distinct_widths": "count",
    "window.stack_bands": "count",
    "window.stack_nnz": "count",
    "window.stack_fill": "ratio",
    "window.stack_bytes": "B",
    "frame1d.coefficients": "count",
    "frame1d.shift_terms": "count",
    "frame1d.eigen_applies": "count",
    "tiling.boxes": "count",
    "tiling.coefficients": "count",
    "tiling.box_stack_bytes": "B",
}
