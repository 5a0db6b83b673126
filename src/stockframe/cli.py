"""Command-line front end.

Flags are validated before any numeric work, and the heavy imports
happen only after the STOCKFRAME_THREADS cap is applied to the usual
thread-count environment variables, so BLAS and FFT pools obey it.

Each subcommand's handler returns (exit code, JSON payload, text lines)
and writes nothing to stdout: `main` alone prints, the payload as one
line of JSON with --json and the lines otherwise (partition and tile,
whose text grows with their output, yield theirs lazily, and partition
its JSON rows, which _print_json writes in batches).

Numbers print as exact shortest round-trip decimals in text and JSON
alike; identical flags and inputs give byte-identical output.  Exit
codes: 0 success, 2 validation or input-file error, 3 a frame check
failed (nonpositive certified lower bound, inadmissible stack,
reconstruction over tolerance, or a selftest criterion failure).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import types
from fractions import Fraction
from functools import partial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    raw = os.environ.get("STOCKFRAME_THREADS")
    if raw is None or raw == "":
        return
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"STOCKFRAME_THREADS must be a positive integer, got {raw!r}")
    for var in _THREAD_VARS:
        os.environ[var] = str(cap)


def _r(x) -> str:
    return repr(float(x))


def _alpha_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"alpha must lie in [0, 1], got {text}")
    from .partition import MAX_DENOMINATOR
    if value.denominator > MAX_DENOMINATOR:
        raise argparse.ArgumentTypeError(
            f"alpha denominator must be at most {MAX_DENOMINATOR}, got {text}")
    return value


def _window_arg(text: str) -> str:
    if text == "gaussian":
        return text
    if text.startswith("tgauss:"):
        try:
            eps = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad taper width in {text!r}") from exc
        if not (math.isfinite(eps) and eps > 0):
            raise argparse.ArgumentTypeError(f"taper width must be positive and finite, got {eps:g}")
        return text
    raise argparse.ArgumentTypeError("window must be 'gaussian' or 'tgauss:EPS'")


def _build_window(token: str):
    from . import window
    if token == "gaussian":
        return window.gaussian_window()
    return window.truncated_gaussian(float(token.split(":", 1)[1]))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _finite_positive_float(text: str) -> float:
    value = _positive_float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


# The frame's spec flags, required wherever they are declared: each with
# its validator and its JSON form (alpha's Fraction as text, mu a float,
# q and n the ints parsed, the window token as typed).
_SPEC_FLAGS = {
    "alpha": (_alpha_arg, str),
    "mu": (_positive_float, float),
    "q": (_positive_int, int),
    "window": (_window_arg, str),
    "n": (_positive_int, int),
}


def _spec_flag(parser, name: str) -> None:
    parser.add_argument("--" + name, type=_SPEC_FLAGS[name][0], required=True)


def _echo(args, *names) -> dict:
    """The named spec flags in their JSON form, for a payload."""
    return {name: _SPEC_FLAGS[name][1](getattr(args, name)) for name in names}


def _frame_spec(args):
    """The 1D frame spec of the flags --alpha/--mu/--q/--window/--n."""
    from .frame1d import make_frame_spec
    return make_frame_spec(_build_window(args.window), args.mu, args.q, args.alpha, args.n)


def _refuse_stdout(flag: str, path) -> None:
    """Refuse an output path that names the file stdout is open on (the
    same device and inode as fd 1), before anything is written: the file
    would be opened a second time, at offset 0, and the report printed
    after it would overwrite it or run into it."""
    if not path:
        return
    try:
        out, target = os.fstat(1), os.stat(path)
    except OSError:  # stdout closed, or the path names no file yet
        return
    if (out.st_dev, out.st_ino) == (target.st_dev, target.st_ino):
        raise ValueError(f"{flag} {path} is the file stdout is open on; the report would overwrite it")


# ---------------------------------------------------------------- partition

def cmd_partition(args):
    from .partition import build_partition
    # Python prints no integer of more digits (0: none); the last stop is
    # the longest, and 2^pmax at alpha = 1
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and args.alpha == 1 and args.pmax >= (10 ** limit).bit_length():
        raise ValueError(f"the stop 2^{args.pmax} has more than {limit} digits; lower --pmax")
    part = build_partition(args.alpha, args.pmax)
    if limit and part.stop >= 10 ** limit:
        raise ValueError(f"the last stop has more than {limit} digits; lower --pmax")
    rows = ({"p": r.p + k, "start": r.lo + k * r.width, "stop": r.lo + (k + 1) * r.width, "width": r.width}
            for r in part.runs for k in range(r.count))
    payload = {**_echo(args, "alpha"), "p_max": args.pmax, "intervals": rows}
    # one row format for the header and the rows, CSV or an aligned table
    row = "{p},{start},{stop},{width}" if args.csv else "{p:>4} {start:>12} {stop:>12} {width:>10}"
    title = [] if args.csv else [f"alpha = {payload['alpha']}, p_max = {args.pmax}"]
    header = row.format_map({name: name for name in ("p", "start", "stop", "width")})
    return EXIT_OK, payload, itertools.chain(title, [header], map(row.format_map, rows))


# -------------------------------------------------------------------- basis

def _write_profiles(base: str, times, time_values, freqs, freq_values) -> list[str]:
    from .containers import write_csv_signal
    tpath, fpath = base + ".time.csv", base + ".freq.csv"
    for path in (tpath, fpath):
        _refuse_stdout("--out", path)
    write_csv_signal(tpath, times, time_values, index_name="t")
    write_csv_signal(fpath, freqs, freq_values, index_name="omega")
    return [tpath, fpath]


def cmd_basis(args):
    from . import basis
    from .spectral import to_spectrum
    elem = basis.basis_element(args.alpha, basis.BasisIndex(args.p, args.tau), args.n)
    lo, hi = basis.band_layout(args.alpha, args.n).band(args.p)
    conc = basis._concentration(elem, hi - lo, args.tau)
    payload = {
        **_echo(args, "alpha", "n"),
        "p": args.p,
        "tau": args.tau,
        "band_lo": lo,
        "band_hi": hi,
        "width": hi - lo,
        "time_norm": float(elem.norm()),
        "concentration": float(conc),
    }
    lines = [
        f"alpha = {payload['alpha']}, p = {args.p}, tau = {args.tau}, n = {args.n}",
        f"band = [{lo}, {hi}), width = {payload['width']}",
        f"time_norm = {_r(payload['time_norm'])}",
        f"concentration = {_r(payload['concentration'])}",
    ]
    if args.out:
        payload["files"] = _write_profiles(args.out, elem.grid.times(), elem.values,
                                           elem.grid.frequencies(), to_spectrum(elem).coeffs)
        lines.append("wrote " + ", ".join(payload["files"]))
    return EXIT_OK, payload, lines


def cmd_basis_check(args):
    from . import basis
    dev = basis.gram_deviation(args.alpha, args.n)  # refuses grids past its cap first
    layout = basis.band_layout(args.alpha, args.n)
    best, where = None, None
    for idx in layout.indices():
        if idx.p in layout.clipped:
            continue
        c = basis.concentration(args.alpha, idx, args.n)
        if best is None or c < best:
            best, where = c, idx
    payload = {
        **_echo(args, "alpha", "n"),
        "elements": sum(layout.width(p) for p in layout.p_list),
        "gram_deviation": float(dev),
        "min_concentration": float(best),
        "argmin_p": where.p,
        "argmin_tau": where.tau,
        "clipped_bands": list(layout.clipped),
    }
    lines = [
        f"alpha = {payload['alpha']}, n = {args.n}, elements = {payload['elements']}",
        f"gram_deviation = {_r(dev)}",
        f"min_concentration = {_r(best)} at (p, tau) = ({where.p}, {where.tau})",
    ]
    if layout.clipped:
        lines.append(f"clipped bands skipped in concentration scan: {payload['clipped_bands']}")
    return EXIT_OK, payload, lines


# -------------------------------------------------------------------- stack

def cmd_stack(args):
    import numpy as np

    from .containers import write_sfr1
    from .spectral import SpectralSignal
    from .window import admissibility, build_stack, stack_sum_bounds
    _refuse_stdout("--dump", args.dump)
    win = _build_window(args.window)
    stack = build_stack(win, args.mu, args.alpha, args.n)
    rep = admissibility(stack)
    sb = stack_sum_bounds(stack)
    payload = {
        **_echo(args, "alpha", "mu", "n", "window"),
        "bands": len(stack.p_list),
        "p_min": stack.p_list[0],
        "p_max": stack.p_list[-1],
        "c1_sup": float(rep.c1),
        "c2_overlap": int(rep.c2),
        "c3_floor": float(rep.c3),
        "admissible": bool(rep.passed),
        "painless_support": bool(rep.painless),
        "a_low": float(sb.a_low),
        "b_high": float(sb.b_high),
    }
    if args.dump:
        grid = stack.grid
        for i, p in enumerate(stack.p_list):
            write_sfr1(args.dump, SpectralSignal(grid, stack.band(p).astype(np.complex128)),
                       append=i > 0)
        payload["dump"] = args.dump
    if args.report:
        lines = [
            f"alpha = {payload['alpha']}, mu = {_r(args.mu)}, window = {args.window}, n = {args.n}",
            f"bands = {payload['bands']} (p = {payload['p_min']} .. {payload['p_max']})",
            f"c1_sup = {_r(rep.c1)}",
            f"c2_overlap = {rep.c2}",
            f"c3_floor = {_r(rep.c3)}",
            f"admissible = {rep.passed}, painless_support = {rep.painless}",
            f"a_low = {_r(sb.a_low)}",
            f"b_high = {_r(sb.b_high)}",
        ]
    else:
        lines = [f"bands = {payload['bands']}, admissible = {rep.passed}, "
                 f"a_low = {_r(sb.a_low)}, b_high = {_r(sb.b_high)}"]
    if args.dump:
        lines.append(f"wrote {payload['bands']} frequency-domain records to {args.dump}")
    return (EXIT_OK if rep.passed else EXIT_CHECK), payload, lines


# ------------------------------------------------------------- frame-bounds

def cmd_frame_bounds(args):
    from . import frame1d
    spec = _frame_spec(args)
    rep = frame1d.walnut_bounds(spec, args.kmax)
    payload = {
        **_echo(args, "alpha", "mu", "q", "n", "window"),
        "k_max": rep.k_max,
        "h0_inf": rep.h0_inf,
        "h0_sup": rep.h0_sup,
        "h_tail": rep.h_tail,
        "nu": rep.nu,
        "walnut_lower": rep.lower,
        "walnut_upper": rep.upper,
    }
    frame_ok = rep.lower > 0
    if args.n <= frame1d.EIGEN_SIZE_CAP:
        eig = frame1d.frame_bounds_eigen(spec)
        payload["eigen_lower"] = eig.lower
        payload["eigen_upper"] = eig.upper
        frame_ok = frame_ok and eig.lower > 0
    lines = [
        f"alpha = {payload['alpha']}, mu = {_r(args.mu)}, q = {args.q}, "
        f"window = {args.window}, n = {args.n}",
        f"h0_inf = {_r(rep.h0_inf)}",
        f"h0_sup = {_r(rep.h0_sup)}",
        f"h_tail = {_r(rep.h_tail)} (k_max = {rep.k_max})",
        f"walnut_lower = {_r(rep.lower)}",
        f"walnut_upper = {_r(rep.upper)}",
    ]
    if "eigen_lower" in payload:
        lines.append(f"eigen_lower = {_r(payload['eigen_lower'])}")
        lines.append(f"eigen_upper = {_r(payload['eigen_upper'])}")
    if not frame_ok:
        lines.append("frame check FAILED: certified lower bound is not positive")
    return (EXIT_OK if frame_ok else EXIT_CHECK), payload, lines


# ------------------------------------------------------------------ element

def cmd_element(args):
    from . import frame1d
    from .spectral import from_spectrum
    spec = _frame_spec(args)
    elem = frame1d.frame_element(spec, args.p, args.k)
    times = from_spectrum(elem)
    payload = {
        **_echo(args, "alpha", "mu", "q", "n", "window"),
        "p": args.p,
        "k": args.k,
        "k_count": spec.k_count(args.p),
        "freq_norm": float(elem.norm()),
        "files": _write_profiles(args.out, elem.grid.times(), times.values,
                                 elem.grid.frequencies(), elem.coeffs),
    }
    return EXIT_OK, payload, [
        f"alpha = {payload['alpha']}, p = {args.p}, k = {args.k} of {payload['k_count']}",
        f"freq_norm = {_r(payload['freq_norm'])}",
        "wrote " + ", ".join(payload["files"]),
    ]


# ---------------------------------------------------------------- roundtrip

def cmd_roundtrip(args):
    from . import frame1d
    from .containers import read_sfr1, write_sfr1
    from .spectral import SpectralSignal, from_spectrum
    _refuse_stdout("--out", args.out)
    signal = read_sfr1(args.infile)
    if signal.grid.size != args.n:
        raise ValueError(f"--n {args.n} does not match input grid size {signal.grid.size}")
    _check_finite(signal.coeffs if isinstance(signal, SpectralSignal) else signal.values)
    rec, rel = frame1d.reconstruct(_frame_spec(args), signal)
    payload = _echo(args, "alpha", "mu", "q", "n", "window")
    return _round_trip_report(args, payload, rel, lambda path: write_sfr1(
        path, rec if isinstance(signal, SpectralSignal) else from_spectrum(rec)))


def _check_finite(values) -> None:
    """Refuse input holding a non-finite sample, naming the first (an index
    in 1D, a tuple in 2D), which the frame check would blame on the frame."""
    import numpy as np
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        where = tuple(int(i) for i in np.unravel_index(bad[0], values.shape))
        raise ValueError(f"input sample {where[0] if values.ndim == 1 else where} is not finite: "
                         f"{complex(values.flat[bad[0]])}")


def _round_trip_report(args, payload: dict, rel: float, write):
    """Finish a round trip: write the reconstruction to --out (write(path)),
    add rel_err, tol and out to payload, and return it with its text lines
    and EXIT_CHECK if rel_err is above --tol."""
    payload.update({"rel_err": float(rel), "tol": float(args.tol)})
    lines = [f"rel_err = {_r(rel)} (tol = {_r(args.tol)})"]
    if args.out:
        write(args.out)
        payload["out"] = args.out
        lines.append(f"wrote reconstruction to {args.out}")
    code = EXIT_OK if rel <= args.tol else EXIT_CHECK
    if code != EXIT_OK:
        lines.append("frame check FAILED: reconstruction error above tolerance")
    return code, payload, lines


# --------------------------------------------------------------------- tile

def cmd_tile(args):
    from .tiling import build_tiling
    til = build_tiling(args.d, args.pmax)
    rows = []
    for box in til.boxes:
        rows.append({
            "p": box.p,
            "ell": None if box.ell is None else list(box.ell),
            "lo": [lo for lo, _ in til.axis_ranges(box)],
            "hi": [hi for _, hi in til.axis_ranges(box)],
            "points": til.point_count(box),
        })
    payload = {
        "d": args.d,
        "p_max": args.pmax,
        "boxes": len(rows),
        "boxes_per_level": 4 ** args.d - 2 ** args.d,  # the shell corners (tiling docstring)
        "table": rows,
    }

    def lines():
        yield (f"d = {args.d}, p_max = {args.pmax}, boxes = {payload['boxes']} "
               f"({payload['boxes_per_level']} per level + DC)")
        for row in rows:
            ell = "DC" if row["ell"] is None else "(" + ",".join(str(e) for e in row["ell"]) + ")"
            box_str = " x ".join(f"[{lo},{hi})" for lo, hi in zip(row["lo"], row["hi"]))
            yield f"p={row['p']:>2} ell={ell:<12} {box_str}  points={row['points']}"
    return EXIT_OK, payload, lines()


# -------------------------------------------------------------- roundtrip2d

def cmd_roundtrip2d(args):
    from . import tiling
    from .containers import DOMAIN_TIME, read_sfr2, write_sfr2
    _refuse_stdout("--out", args.out)
    values, domain = read_sfr2(args.infile)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square 2D field, got shape {values.shape}")
    if values.shape[0] != args.n:
        raise ValueError(f"--n {args.n} does not match input size {values.shape[0]}")
    _check_finite(values)
    fhat = tiling.to_spectrum_nd(values) if domain == DOMAIN_TIME else values
    win = _build_window(args.window)
    spec = tiling.make_nd_frame_spec(win, args.mu, args.q, 2, args.n, p_max=args.pmax)
    rec, rel = tiling.reconstruct_nd(spec, fhat)
    payload = {**_echo(args, "mu", "q", "n", "window"), "p_max": spec.tiling.p_max}
    return _round_trip_report(args, payload, rel, lambda path: write_sfr2(
        path, tiling.from_spectrum_nd(rec) if domain == DOMAIN_TIME else rec, domain))


# ----------------------------------------------------------------- selftest

def _criteria_arg(text: str) -> list[int]:
    try:
        numbers = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad criteria list {text!r}") from exc
    from .acceptance import CRITERIA
    if not numbers or not all(1 <= n <= len(CRITERIA) for n in numbers):
        raise argparse.ArgumentTypeError(f"criteria numbers must lie in 1..{len(CRITERIA)}")
    return numbers


def cmd_selftest(args):
    from .acceptance import SEED, run_all
    results = run_all(args.criteria)
    payload = {
        "seed": SEED,
        "passed": all(r.passed for r in results),
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail, "elapsed": float(r.elapsed)}
            for r in results
        ],
    }
    lines = [r.line() for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return (EXIT_OK if payload["passed"] else EXIT_CHECK), payload, lines


# ------------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' included, whose flag errors
    print one line, "stockframe <cmd>: error: ...", without the usage
    block, and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stockframe",
        description="Adaptive frequency partitions, orthonormal bases and "
                    "non-stationary frames on periodized grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag in flags:
            _spec_flag(p, flag)
        return p

    frame = ("alpha", "mu", "q", "window", "n")
    p = add("partition", cmd_partition, "print the (p, start, stop, width) table", "alpha")
    p.add_argument("--pmax", type=_positive_int, required=True)
    p.add_argument("--csv", action="store_true", help="CSV table on stdout")

    p = add("basis", cmd_basis, "evaluate one orthonormal basis element", "alpha")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tau", type=int, default=0)
    _spec_flag(p, "n")
    p.add_argument("--out", help="base path; writes .time.csv and .freq.csv")

    add("basis-check", cmd_basis_check, "Gram deviation and concentration scan", "alpha", "n")

    p = add("stack", cmd_stack, "window stack admissibility and sum-of-squares bounds",
            "alpha", "mu", "window", "n")
    p.add_argument("--report", action="store_true", help="full admissibility report")
    p.add_argument("--dump", help="write all bands to an SFR1 container")

    p = add("frame-bounds", cmd_frame_bounds, "certified Walnut bounds, eigen bounds for n <= 1024", *frame)
    p.add_argument("--kmax", type=_positive_int, default=None,
                   help="truncate the aliasing sum (default: to the grid edge)")

    p = add("element", cmd_element, "export one frame element in time and frequency", *frame)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="base path; writes .time.csv and .freq.csv")

    p = add("roundtrip", cmd_roundtrip, "analyze + dual synthesize an SFR1 signal", *frame)
    p.add_argument("--in", dest="infile", required=True, help="input SFR1 container")
    p.add_argument("--out", help="write the reconstruction as SFR1")
    p.add_argument("--tol", type=_finite_positive_float, default=1e-6)

    p = add("tile", cmd_tile, "print the d-dimensional box table")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--pmax", type=_positive_int, required=True)

    p = add("roundtrip2d", cmd_roundtrip2d, "analyze + dual synthesize an SFR2 field", *frame[1:])
    p.add_argument("--pmax", type=_positive_int, default=None,
                   help="corona depth (default: cover the grid)")
    p.add_argument("--in", dest="infile", required=True, help="input SFR2 container")
    p.add_argument("--out", help="write the reconstruction as SFR2")
    p.add_argument("--tol", type=_finite_positive_float, default=1e-6)

    p = add("selftest", cmd_selftest, "run the acceptance criteria")
    p.add_argument("--criteria", type=_criteria_arg, default=None,
                   help="comma-separated criterion numbers (default: all)")

    return parser


def _print_json(payload: dict) -> None:
    """Print payload as one line, the bytes of print(json.dumps(payload,
    sort_keys=True, allow_nan=False)) with a generator value (partition's
    rows) as its list, written 4096 items at a time.  Every other value is
    encoded first: NaN and Infinity are not JSON (RFC 8259), so json.dumps
    refuses them with a ValueError (exit 2) before anything reaches stdout."""
    dumps = partial(json.dumps, sort_keys=True, allow_nan=False)
    items = [(dumps(key), value if isinstance(value, types.GeneratorType) else dumps(value))
             for key, value in sorted(payload.items())]
    write = sys.stdout.write
    write("{")
    for i, (key, value) in enumerate(items):
        write((", " if i else "") + key + ": ")
        if isinstance(value, str):
            write(value)
            continue
        write("[")
        sep = ""
        while batch := list(itertools.islice(value, 4096)):
            write(sep + dumps(batch)[1:-1])
            sep = ", "
        write("]")
    write("}\n")


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = _build_parser().parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
        if args.json:
            _print_json(payload)
        else:
            for line in lines:
                sys.stdout.write(line + "\n")
        return code
    except Exception as exc:  # noqa: BLE001 - sorted into exit codes below
        from .frame1d import FrameGapError
        if isinstance(exc, FrameGapError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK
        if isinstance(exc, (ValueError, TypeError, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
