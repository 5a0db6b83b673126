"""Command surface: exit codes, output determinism, file flows."""

import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from stockframe.cli import _print_json, main
from stockframe.containers import (
    DOMAIN_FREQUENCY,
    DOMAIN_TIME,
    read_csv_signal,
    read_sfr1,
    read_sfr1_all,
    read_sfr2,
    write_sfr1,
    write_sfr2,
)
from stockframe.spectral import FrequencyGrid, SpectralSignal, TimeSamples
from stockframe.tiling import admissible_ells

NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?!\w)")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_scalars(obj, acc=None):
    """Every leaf value of a parsed JSON tree, rendered the way text mode does."""
    if acc is None:
        acc = set()
    if isinstance(obj, dict):
        for v in obj.values():
            json_scalars(v, acc)
    elif isinstance(obj, list):
        for v in obj:
            json_scalars(v, acc)
    elif isinstance(obj, bool):
        acc.add(str(obj))
    elif isinstance(obj, float):
        acc.add(repr(obj))
    else:
        acc.add(str(obj))
    return acc


# ---------------------------------------------------------------- partition


def test_partition_table(capsys):
    code, out, _ = run(capsys, "partition", "--alpha", "0.5", "--pmax", "7", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["p", "start", "stop", "width"]
    starts = [int(r[1]) for r in rows[1:]]
    widths = [int(r[3]) for r in rows[1:]]
    assert starts == [0, 1, 2, 3, 4, 6, 8, 10]
    assert widths == [1, 1, 1, 1, 2, 2, 2, 3]


def test_partition_accepts_fraction_text(capsys):
    code_a, out_a, _ = run(capsys, "partition", "--alpha", "1/2", "--pmax", "5", "--json")
    code_b, out_b, _ = run(capsys, "partition", "--alpha", "0.5", "--pmax", "5", "--json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_partition_rejects_alpha_outside_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--alpha", "1.5", "--pmax", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--alpha", "0.1234567", "--pmax", "50"],
        ["stack", "--alpha", "0.999999999", "--n", "4096", "--mu", "0.5", "--window", "gaussian"],
    ],
)
def test_alpha_with_large_denominator_is_usage_error(argv):
    # exact ladder arithmetic raises integers to alpha's denominator; 10**7
    # and 10**9 used to run for many seconds instead of being refused
    proc = run_cli_quickly(*argv)
    assert proc.returncode == 2
    assert "alpha denominator must be at most 10000" in proc.stderr


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--alpha", "0.3", "--pmax", "9", "--json"],
        ["frame-bounds", "--alpha", "1", "--mu", "0.5", "--q", "4",
         "--window", "gaussian", "--n", "128", "--json"],
        ["tile", "--d", "2", "--pmax", "3", "--json"],
        ["basis-check", "--alpha", "0.5", "--n", "64", "--json"],
    ],
)
def test_json_output_is_byte_identical_across_runs(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)  # parses


def test_text_numbers_all_appear_in_json(capsys):
    argv = ["frame-bounds", "--alpha", "1", "--mu", "0.5", "--q", "8",
            "--window", "gaussian", "--n", "256"]
    _, text, _ = run(capsys, *argv)
    _, blob, _ = run(capsys, *argv, "--json")
    scalars = json_scalars(json.loads(blob))
    # skip the first line, an echo of the flags already given
    for line in text.strip().splitlines()[1:]:
        for token in NUMBER.findall(line):
            assert token in scalars, f"{token!r} missing from JSON payload"


# ---------------------------------------------------------------- basis


def test_basis_exports_profiles(tmp_path, capsys):
    base = tmp_path / "el"
    code, out, _ = run(capsys, "basis", "--alpha", "0.5", "--p", "4", "--tau", "1",
                       "--n", "64", "--out", str(base))
    assert code == 0
    t_idx, t_vals = read_csv_signal(str(base) + ".time.csv")
    f_idx, f_vals = read_csv_signal(str(base) + ".freq.csv")
    assert t_idx.size == 64 and f_idx.size == 64
    # unit L2([0,1)) norm survives the export
    assert np.linalg.norm(t_vals) / 8.0 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(f_vals) == pytest.approx(1.0, abs=1e-12)


def test_basis_check_reports_gram_and_concentration(capsys):
    code, out, _ = run(capsys, "basis-check", "--alpha", "0.5", "--n", "64", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["gram_deviation"] < 1e-10
    assert 0.85 <= rep["min_concentration"] <= 1.0


# ---------------------------------------------------------------- stack / bounds


def test_stack_dump_writes_every_band(tmp_path, capsys):
    dump = tmp_path / "bands.sfr1"
    code, out, _ = run(capsys, "stack", "--alpha", "1", "--mu", "0.5",
                       "--window", "gaussian", "--n", "64", "--dump", str(dump))
    assert code == 0
    records = read_sfr1_all(dump)
    assert len(records) == int(re.search(r"bands = (\d+)", out).group(1))
    assert all(rec.grid.size == 64 for rec in records)


def test_stack_exit_three_on_gapped_system(capsys):
    code, _, err = run(capsys, "stack", "--alpha", "1", "--mu", "8",
                       "--window", "tgauss:0.01", "--n", "64")
    assert code == 3


@pytest.mark.parametrize("width", ["inf", "1e999", "-inf", "nan"])
def test_non_finite_taper_width_is_refused(capsys, width):
    # an infinite taper has an infinite zero radius: at n = 64 the stack
    # printed a Gaussian's numbers under a tgauss label, at n = 4096 the
    # lattice cap's advice to raise mu
    for n in ("64", "4096"):
        with pytest.raises(SystemExit) as exc:
            main(["stack", "--alpha", "0.5", "--mu", "0.5", "--window", f"tgauss:{width}",
                  "--n", n, "--json"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert [line for line in out.err.splitlines() if "error" in line] == [
            "stockframe stack: error: argument --window: taper width must be positive and finite, "
            f"got {float(width):g}"]


def test_tiny_taper_width_runs_without_a_warning():
    # (|x| - 1) / eps overflows at eps = 1e-320; under -W error numpy's
    # warning would end the run in a traceback
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "stockframe.cli", "stack",
                           "--alpha", "0.5", "--mu", "0.5", "--window", "tgauss:1e-320",
                           "--n", "64", "--json"], capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["window"] == "tgauss:1e-320"


def test_frame_bounds_sandwich_in_json(capsys):
    code, out, _ = run(capsys, "frame-bounds", "--alpha", "1", "--mu", "0.5", "--q", "8",
                       "--window", "gaussian", "--n", "256", "--json")
    assert code == 0
    rep = json.loads(out)
    assert 0 < rep["walnut_lower"] <= rep["eigen_lower"] + 1e-9
    assert rep["eigen_upper"] <= rep["walnut_upper"] + 1e-9


def test_frame_bounds_skips_eigen_on_large_grids(capsys):
    code, out, _ = run(capsys, "frame-bounds", "--alpha", "1", "--mu", "0.5", "--q", "4",
                       "--window", "gaussian", "--n", "2048", "--json")
    assert code == 0
    rep = json.loads(out)
    assert "eigen_lower" not in rep
    assert rep["walnut_lower"] > 0


# ---------------------------------------------------------------- element


def test_element_export_round_trips(tmp_path, capsys):
    base = tmp_path / "fe"
    code, _, _ = run(capsys, "element", "--alpha", "1", "--mu", "0.5", "--q", "4",
                     "--window", "gaussian", "--n", "64", "--p", "3", "--k", "2",
                     "--out", str(base))
    assert code == 0
    f_idx, f_vals = read_csv_signal(str(base) + ".freq.csv")
    from stockframe.frame1d import frame_element, make_frame_spec
    from stockframe.window import gaussian_window
    spec = make_frame_spec(gaussian_window(), 0.5, 4, 1, 64)
    want = frame_element(spec, 3, 2).coeffs
    assert np.array_equal(f_vals, want)


def test_element_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "element", "--alpha", "1", "--mu", "0.5", "--q", "4",
                       "--window", "gaussian", "--n", "64", "--p", "99", "--k", "0",
                       "--out", "/tmp/unused")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------- roundtrip


def make_input(tmp_path, n=128, seed=0):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(n)
    x = TimeSamples(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    path = tmp_path / "in.sfr1"
    write_sfr1(path, x)
    return path, x


def test_roundtrip_reconstructs_and_mirrors_domain(tmp_path, capsys):
    path, x = make_input(tmp_path)
    out = tmp_path / "rec.sfr1"
    code, text, _ = run(capsys, "roundtrip", "--alpha", "1", "--mu", "0.5", "--q", "8",
                        "--window", "gaussian", "--n", "128",
                        "--in", str(path), "--out", str(out))
    assert code == 0
    rec = read_sfr1(out)
    assert isinstance(rec, TimeSamples)  # input was time domain
    assert np.max(np.abs(rec.values - x.values)) < 1e-5


def test_roundtrip_tight_tolerance_fails_check(tmp_path, capsys):
    # q = 4 leaves a ~1e-11 aliasing residual, far above the requested tol
    path, _ = make_input(tmp_path)
    code, out, err = run(capsys, "roundtrip", "--alpha", "1", "--mu", "0.5", "--q", "4",
                         "--window", "gaussian", "--n", "128",
                         "--in", str(path), "--tol", "1e-15")
    assert code == 3
    assert "FAILED" in out + err


def test_roundtrip_grid_mismatch_is_usage_error(tmp_path, capsys):
    path, _ = make_input(tmp_path, n=64)
    code, _, _ = run(capsys, "roundtrip", "--alpha", "1", "--mu", "0.5", "--q", "8",
                     "--window", "gaussian", "--n", "128", "--in", str(path))
    assert code == 2


def test_roundtrip_missing_file_is_usage_error(capsys):
    code, _, _ = run(capsys, "roundtrip", "--alpha", "1", "--mu", "0.5", "--q", "8",
                     "--window", "gaussian", "--n", "128", "--in", "/nonexistent.sfr1")
    assert code == 2


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_roundtrip_refuses_a_piped_input_by_name(tmp_path):
    # a pipe has no size to check the header's against: refused in one
    # line naming it, where it printed "[Errno 29] Illegal seek"; the same
    # bytes redirected from a regular file are read
    path, _ = make_input(tmp_path, n=64)
    argv = [sys.executable, "-m", "stockframe.cli", "roundtrip", "--alpha", "1", "--mu", "0.5",
            "--q", "8", "--window", "gaussian", "--n", "64", "--in", "/dev/stdin", "--json"]
    piped = subprocess.run(argv, input=path.read_bytes(), capture_output=True, timeout=5)
    assert piped.returncode == 2
    assert piped.stderr.decode().splitlines() == [
        "error: /dev/stdin: not a regular file; the reader checks a record's declared size "
        "against the file's before reading it"]
    with open(path, "rb") as fh:
        redirected = subprocess.run(argv, stdin=fh, capture_output=True, timeout=5)
    assert redirected.returncode == 0, redirected.stderr
    assert json.loads(redirected.stdout)["rel_err"] < 1e-13


def stdout_sink_argv(tmp_path, command):
    """argv that writes command's output file to /dev/stdout, and its flag."""
    if command == "stack":
        return ["stack", "--alpha", "1", "--mu", "0.5", "--window", "gaussian", "--n", "64",
                "--dump", "/dev/stdout"], "--dump"
    if command == "roundtrip":
        path, _ = make_input(tmp_path, n=64)
        argv = ["roundtrip", "--alpha", "1", "--n", "64"]
    else:
        path = tmp_path / "in.sfr2"
        write_sfr2(path, np.random.default_rng(4).standard_normal((16, 16)), DOMAIN_TIME)
        argv = ["roundtrip2d", "--n", "16", "--json"]
    return argv + ["--mu", "0.5", "--q", "8", "--window", "gaussian", "--in", str(path),
                   "--out", "/dev/stdout"], "--out"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("sink", ["file", "pipe"])
@pytest.mark.parametrize("command", ["roundtrip", "roundtrip2d", "stack"])
def test_an_output_path_that_is_stdout_is_refused(tmp_path, command, sink):
    # the container was written through a second file description on
    # stdout's file, and the report then overwrote it from offset 0
    # (read_sfr1: "bad magic b'rel_'"): refused before anything is written
    argv, flag = stdout_sink_argv(tmp_path, command)
    argv = [sys.executable, "-m", "stockframe.cli", *argv]
    if sink == "file":
        sunk = tmp_path / "out.bin"
        with open(sunk, "wb") as fh:
            proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, timeout=5)
        written = sunk.read_bytes()
    else:
        proc = subprocess.run(argv, capture_output=True, timeout=5)
        written = proc.stdout
    assert (proc.returncode, written) == (2, b"")
    assert proc.stderr.decode().splitlines() == [
        f"error: {flag} /dev/stdout is the file stdout is open on; the report would overwrite it"]


@pytest.mark.parametrize("suffix", [".time.csv", ".freq.csv"])
@pytest.mark.parametrize("argv", [
    ["basis", "--alpha", "0.5", "--p", "3", "--n", "64"],
    ["element", "--alpha", "0.5", "--mu", "0.5", "--q", "4", "--window", "gaussian", "--n", "64",
     "--p", "1", "--k", "0"],
], ids=["basis", "element"])
def test_a_profile_path_that_is_stdout_is_refused(tmp_path, argv, suffix):
    # --out el > el.time.csv wrote the CSV through a second file description
    # on stdout's file, and the report then overwrote its header: both
    # paths are refused before either file is opened
    sunk = tmp_path / ("el" + suffix)
    with open(sunk, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "stockframe.cli", *argv, "--out", str(tmp_path / "el")],
                              stdout=fh, stderr=subprocess.PIPE, timeout=5)
    assert (proc.returncode, sunk.read_bytes()) == (2, b"")
    assert proc.stderr.decode().splitlines() == [
        f"error: --out {sunk} is the file stdout is open on; the report would overwrite it"]
    assert [p.name for p in tmp_path.iterdir()] == [sunk.name]


def test_roundtrip_may_write_over_its_input(tmp_path):
    # the input is read whole before the output is opened
    path, x = make_input(tmp_path, n=64)
    proc = run_cli_quickly("roundtrip", "--alpha", "1", "--mu", "0.5", "--q", "8", "--window", "gaussian",
                           "--n", "64", "--in", str(path), "--out", str(path), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["out"] == str(path)
    assert np.max(np.abs(read_sfr1(path).values - x.values)) < 1e-12


def run_cli_quickly(*argv):
    """Run the CLI in a child process that must finish within 5 s."""
    return subprocess.run([sys.executable, "-m", "stockframe.cli", *argv],
                          capture_output=True, text=True, timeout=5)


def run_cli_measured(*argv):
    """Run the CLI in a child process that must finish within 5 s; returns
    the process and its peak RSS in KiB.  The child reads VmHWM, the peak
    of its own image; its ru_maxrss would also count this process."""
    code = ("import re, sys\nfrom stockframe.cli import main\nrc = main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'^VmHWM:\\s*(\\d+) kB', status, re.M).group(1))\nsys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=5)
    return proc, int(proc.stdout.strip().splitlines()[-1])


def test_partition_deep_fractional_ladder_ends_quickly():
    # alpha = 99/100 takes exact roots of 100th powers of starts past
    # 2**300; integer Newton from the float seed needs a few steps each
    proc = run_cli_quickly("partition", "--alpha", "0.99", "--pmax", "1000", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["intervals"][-1]["p"] == 1000


def test_partition_past_the_float_range():
    # at alpha = 1 the starts pass 2**1024 from p = 1025 on, where a
    # float seed of the exact power used to overflow
    proc = run_cli_quickly("partition", "--alpha", "1", "--pmax", "1100", "--json")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout)["intervals"][-1]
    assert last == {"p": 1100, "start": 2**1099, "stop": 2**1100, "width": 2**1099}


@pytest.mark.parametrize("alpha", ["0", "1/3", "1/2", "1"])
def test_partition_json_lists_the_intervals(capsys, alpha):
    # the rows are made from the runs as the JSON is written: the bytes of
    # a list built from the intervals
    from fractions import Fraction

    from stockframe.partition import build_partition
    rows = [{"p": iv.p, "start": iv.start, "stop": iv.stop, "width": iv.width}
            for iv in build_partition(Fraction(alpha), 300).intervals]
    want = json.dumps({"alpha": alpha, "p_max": 300, "intervals": rows}, sort_keys=True) + "\n"
    assert run(capsys, "partition", "--alpha", alpha, "--pmax", "300", "--json") == (0, want, "")


def test_json_writer_streams_a_generator_and_refuses_anything_else(capsys):
    # a generator's rows in batches of 4096 joined inside one list: the
    # bytes of json.dumps with the rows listed
    for count in (0, 1, 4096, 4097, 10000):
        payload = {"z": {"b": 0.1, "a": [1, "x"]}, "rows": ({"p": k} for k in range(count)), "a": "1/2"}
        want = json.dumps({**payload, "rows": [{"p": k} for k in range(count)]}, sort_keys=True)
        _print_json(payload)
        assert capsys.readouterr().out == want + "\n", count
    # NaN, here after the rows in key order, and what json cannot encode
    # are refused before anything is written
    for bad, error, match in ((math.nan, ValueError, "Out of range float values"),
                              (iter([1]), TypeError, "is not JSON serializable"),
                              (np.arange(2), TypeError, "is not JSON serializable")):
        with pytest.raises(error, match=match):
            _print_json({"a": (k for k in range(10)), "b": [bad]})
        assert capsys.readouterr().out == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("fmt", [[], ["--csv"], ["--json"]])
def test_partition_streams_its_rows(fmt):
    # 200,001 rows made from the ladder's one run as they are printed: the
    # intervals and a list of row dicts held 108 MB, and the JSON's list of
    # every row 99.5 MB
    proc, peak_kib = run_cli_measured("partition", "--alpha", "0", "--pmax", "200000", *fmt)
    assert proc.returncode == 0, proc.stderr
    *lines, _ = proc.stdout.splitlines()  # less the VmHWM line
    if fmt == ["--json"]:
        rows = json.loads(lines[0])["intervals"]
        assert (len(lines), len(rows)) == (1, 200001)
        assert rows[-1] == {"p": 200000, "start": 200000, "stop": 200001, "width": 1}
    else:
        assert len(lines) == (200002 if fmt else 200003)
        assert lines[-1] == ("200000,200000,200001,1" if fmt else "200000       200000       200001          1")
    assert peak_kib < 60 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_basis_reads_its_one_band_of_the_layout():
    # a dict of every band of the layout (2^20 - 1 at alpha = 0) held 295 MB
    proc, peak_kib = run_cli_measured("basis", "--alpha", "0", "--p", "3", "--n", "1048576", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.splitlines()[0])
    assert (payload["band_lo"], payload["band_hi"]) == (3, 4)
    assert peak_kib < 200 * 1024


def refused_on_one_line(proc):
    lines = proc.stderr.splitlines()
    return proc.returncode == 2 and proc.stdout == "" and len(lines) == 1 and len(lines[0]) < 120


@pytest.mark.parametrize("pmax", ["14285", "100000", "100000000"])
def test_partition_stops_past_the_digit_limit_are_refused(pmax):
    # at alpha = 1 the last stop is 2^pmax, refused before the ladder is
    # built once it has more digits than Python prints (4300 by default:
    # 2^14284 has 4300)
    proc = run_cli_quickly("partition", "--alpha", "1", "--pmax", pmax)
    assert refused_on_one_line(proc), proc.stderr
    assert "more than 4300 digits" in proc.stderr


def test_partition_checks_its_last_stop_before_printing(capsys, monkeypatch):
    # at alpha = 1/2 and pmax = 100 the last stop is 2320, 4 digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4)
    code, out, _ = run(capsys, "partition", "--alpha", "0.5", "--pmax", "100", "--json")
    assert code == 0 and json.loads(out)["intervals"][-1]["stop"] == 2320
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3)
    code, out, err = run(capsys, "partition", "--alpha", "0.5", "--pmax", "100", "--json")
    assert code == 2 and out == ""
    assert err == "error: the last stop has more than 3 digits; lower --pmax\n"


@pytest.mark.parametrize("p", ["1000", "100000", "1000000"])
def test_basis_band_far_outside_the_grid_is_refused(p):
    # p is checked against the ladder that covers the grid before any
    # band out to |p| is built
    proc = run_cli_quickly("basis", "--alpha", "1", "--p", p, "--n", "64")
    assert refused_on_one_line(proc), proc.stderr
    assert proc.stderr == f"error: band {p} outside the grid: |p| <= 5 at n = 64\n"


@pytest.mark.parametrize("alpha, q", [("0", (1 << 63) + 4), ("1", (1 << 63) + 4), ("1", 1 << 62)])
def test_roundtrip_huge_q_is_usage_error(tmp_path, alpha, q):
    # 2^63 + 4 and (at alpha = 1) 2^62 leave int64 in q*w
    path, _ = make_input(tmp_path, n=64)
    proc = run_cli_quickly("roundtrip", "--alpha", alpha, "--mu", "0.5", "--q", str(q),
                           "--window", "gaussian", "--n", "64", "--in", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("alpha, q", [("0", 1 << 40), ("1", 1 << 40), ("0", 1 << 62)])
def test_roundtrip_huge_q_still_reconstructs(tmp_path, alpha, q):
    # periods q*w far past the grid admit no shift, and reconstruction
    # folds into at most one slot per bin: the round trip is exact
    path, _ = make_input(tmp_path, n=64)
    proc = run_cli_quickly("roundtrip", "--alpha", alpha, "--mu", "0.5", "--q", str(q),
                           "--window", "gaussian", "--n", "64", "--in", str(path), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rel_err"] < 1e-13


def test_roundtrip_json_is_the_same_under_any_thread_count(tmp_path):
    # rel_err sums by numpy, not BLAS, whose two-thread norm moved its
    # last digits at this n
    path, _ = make_input(tmp_path, n=16384)
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "stockframe.cli", "roundtrip", "--alpha", "1",
                               "--mu", "0.5", "--q", "8", "--window", "gaussian", "--n", "16384",
                               "--in", str(path), "--json"],
                              env={**os.environ, "STOCKFRAME_THREADS": threads},
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_basis_and_element_json_are_the_same_under_any_thread_count(tmp_path):
    # the norms sum by numpy, not BLAS, whose two-thread norm moved the
    # last digits of time_norm at n = 2^20
    commands = [("basis", "--alpha", "0.5", "--p", "4", "--tau", "1", "--n", str(1 << 20)),
                ("element", "--alpha", "0.5", "--mu", "0.5", "--q", "4", "--window", "gaussian",
                 "--n", "65536", "--p", "3", "--k", "2", "--out", str(tmp_path / "el"))]
    for argv in commands:
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "stockframe.cli", *argv, "--json"],
                                  env={**os.environ, "STOCKFRAME_THREADS": threads},
                                  capture_output=True, text=True, timeout=20)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv[0]


def test_roundtrip_rel_err_keeps_its_bits_on_a_scaled_input(tmp_path):
    # the aliasing config misses its tolerance at unit scale; scaled by
    # 2^-565 its squared parts underflowed to a rel_err of 0.0 and a pass,
    # scaled by 2^565 they overflowed to NaN and a numpy warning
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    runs = []
    for k in (0, -565, 565):
        path = tmp_path / f"scaled{k}.sfr1"
        write_sfr1(path, TimeSamples(FrequencyGrid(2048), x * 2.0 ** k))
        runs.append(run_cli_quickly("roundtrip", "--alpha", "0.5", "--mu", "0.5", "--q", "2",
                                    "--window", "gaussian", "--n", "2048", "--in", str(path), "--json"))
    unit = runs[0]
    assert unit.returncode == 3 and unit.stderr == ""
    assert 1e-5 < json.loads(unit.stdout)["rel_err"] < 1e-3
    for proc in runs[1:]:
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, unit.stdout, "")


def test_roundtrip_rel_err_keeps_its_bits_on_a_spectral_input_near_the_float_range(tmp_path):
    # spectral coefficients of unit scale times 2^1020: the norm of the
    # input alone overflowed, so rel_err printed 0.0 and the check passed
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    runs = []
    for k in (0, 1020):
        path = tmp_path / f"scaled{k}.sfr1"
        write_sfr1(path, SpectralSignal(FrequencyGrid(2048), x * 2.0 ** k))
        runs.append(run_cli_quickly("roundtrip", "--alpha", "0.5", "--mu", "0.5", "--q", "2",
                                    "--window", "gaussian", "--n", "2048", "--in", str(path), "--json"))
    unit, huge = runs
    assert unit.returncode == 3 and unit.stderr == ""
    assert 1e-5 < json.loads(unit.stdout)["rel_err"] < 1e-3
    assert (huge.returncode, huge.stdout, huge.stderr) == (3, unit.stdout, "")


@pytest.mark.parametrize("flag, message", [
    (("--tol", "inf"), "argument --tol: must be finite, got inf"),
    (("--q", "0"), "argument --q: must be >= 1, got 0"),
    (("--window", "tgauss:inf"), "argument --window: taper width must be positive and finite, got inf"),
])
def test_flag_errors_print_one_line(tmp_path, flag, message):
    # argparse printed its two-line usage block above the error line
    path, _ = make_input(tmp_path, n=64)
    argv = {"--alpha": "0.5", "--mu": "0.5", "--q": "2", "--window": "gaussian", "--n": "64",
            "--in": str(path), flag[0]: flag[1]}
    proc = run_cli_quickly("roundtrip", *(x for item in argv.items() for x in item))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"stockframe roundtrip: error: {message}\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_roundtrip_non_finite_sample_is_refused(tmp_path, capsys, value):
    # one NaN sample made the frame check fail with a NaN rel_err, which
    # blamed the frame for its input; the containers keep every bit
    x = np.random.default_rng(1).standard_normal(64).astype(complex)
    x[37] = value
    path = tmp_path / "in.sfr1"
    write_sfr1(path, TimeSamples(FrequencyGrid(64), x))
    assert np.array_equal(read_sfr1(path).values, x, equal_nan=True)
    code, out, err = run(capsys, "roundtrip", "--alpha", "0.5", "--mu", "0.5", "--q", "2",
                         "--window", "gaussian", "--n", "64", "--in", str(path), "--json")
    assert (code, out) == (2, "")
    assert err == f"error: input sample 37 is not finite: {complex(value)}\n"


def test_roundtrip2d_non_finite_sample_is_refused(tmp_path, capsys):
    field = np.zeros((16, 16), dtype=complex)
    field[3, 9], field[5, 2] = np.nan, np.inf
    path = tmp_path / "in.sfr2"
    write_sfr2(path, field, DOMAIN_FREQUENCY)
    code, out, err = run(capsys, "roundtrip2d", "--mu", "0.5", "--q", "4", "--window", "gaussian",
                         "--n", "16", "--in", str(path), "--json")
    assert (code, out) == (2, "")
    assert err == "error: input sample (3, 9) is not finite: (nan+0j)\n"


@pytest.mark.parametrize("tol", ["inf", "1e999"])
def test_non_finite_tolerance_is_refused(tmp_path, capsys, tol):
    # --tol inf passed every round trip and printed "tol": Infinity, which
    # is not JSON
    path, _ = make_input(tmp_path, n=64)
    for argv in (("roundtrip", "--alpha", "1", "--n", "64", "--q", "8", "--in", str(path)),
                 ("roundtrip2d", "--n", "16", "--q", "4", "--in", str(path))):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mu", "0.5", "--window", "gaussian", "--tol", tol, "--json"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert [line for line in out.err.splitlines() if "error" in line] == [
            f"stockframe {argv[0]}: error: argument --tol: must be finite, got inf"]


def test_non_finite_json_value_is_refused(monkeypatch, capsys):
    # a non-finite number never reaches stdout: NaN is not JSON
    from stockframe import frame1d
    monkeypatch.setattr(frame1d, "frame_bounds_eigen",
                        lambda spec: frame1d.FrameBounds(float("nan"), 1.0, "eigen"))
    code, out, err = run(capsys, "frame-bounds", "--alpha", "1", "--mu", "0.5", "--q", "8",
                         "--window", "gaussian", "--n", "64", "--json")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: Out of range float values")


def test_roundtrip_oversized_sfr1_header_is_usage_error(tmp_path):
    # n = 4e9 declares a 64 GB payload; it must be refused, not allocated
    path = tmp_path / "huge.sfr1"
    path.write_bytes(b"SFR1" + struct.pack("<I", 4_000_000_000) + b"\x01" + b"\x00" * 32)
    proc = run_cli_quickly("roundtrip", "--alpha", "1", "--mu", "0.5", "--q", "8",
                           "--window", "gaussian", "--n", "128", "--in", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: truncated container")
    assert len(proc.stderr.strip().splitlines()) == 1


# ---------------------------------------------------------------- tile / 2d


def test_tile_box_count(capsys):
    code, out, _ = run(capsys, "tile", "--d", "2", "--pmax", "3", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["boxes"] == 1 + 3 * 12
    assert len(rep["table"]) == rep["boxes"]


@pytest.mark.parametrize("d", range(1, 7))
def test_tile_boxes_per_level_counts_the_shell_corners(d, capsys):
    # taken as 4^d - 2^d, without listing the corners again
    code, out, _ = run(capsys, "tile", "--d", str(d), "--pmax", "1", "--json")
    assert code == 0
    assert json.loads(out)["boxes_per_level"] == len(admissible_ells(d))


@pytest.mark.parametrize("d", [10, 11, 16, 1000])
def test_tile_past_the_box_cap_is_usage_error(d):
    # refused from the box count alone, before 4^d corners are filtered
    proc = run_cli_quickly("tile", "--d", str(d), "--pmax", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1 and "exceeds the cap" in proc.stderr


def test_roundtrip2d_frequency_field(tmp_path, capsys):
    rng = np.random.default_rng(5)
    field = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    path = tmp_path / "in.sfr2"
    write_sfr2(path, field, DOMAIN_FREQUENCY)
    out = tmp_path / "rec.sfr2"
    code, text, _ = run(capsys, "roundtrip2d", "--mu", "0.5", "--q", "4",
                        "--window", "tgauss:0.1", "--n", "16",
                        "--in", str(path), "--out", str(out), "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["rel_err"] < 1e-10
    back, domain = read_sfr2(out)
    assert domain == DOMAIN_FREQUENCY
    assert np.max(np.abs(back - field)) < 1e-10


def test_roundtrip2d_time_field(tmp_path, capsys):
    rng = np.random.default_rng(6)
    field = rng.standard_normal((16, 16))
    path = tmp_path / "in.sfr2"
    write_sfr2(path, field, DOMAIN_TIME)
    code, text, _ = run(capsys, "roundtrip2d", "--mu", "0.5", "--q", "4",
                        "--window", "gaussian", "--n", "16", "--in", str(path))
    assert code == 0


def test_roundtrip2d_huge_q_still_reconstructs(tmp_path, capsys):
    # q = 2^62: every period but the DC one, q 2^(p-1), leaves int64; none
    # admits a shift on the grid, and the round trip is exact
    path = tmp_path / "in.sfr2"
    write_sfr2(path, np.random.default_rng(7).standard_normal((16, 16)), DOMAIN_TIME)
    code, text, _ = run(capsys, "roundtrip2d", "--mu", "0.5", "--q", str(1 << 62),
                        "--window", "gaussian", "--n", "16", "--in", str(path), "--json")
    assert code == 0
    assert text == ('{"mu": 0.5, "n": 16, "p_max": 4, "q": 4611686018427387904, '
                    '"rel_err": 1.1835855322611772e-16, "tol": 1e-06, "window": "gaussian"}\n')


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("pmax", [30, 62, 63, 1000])
def test_roundtrip2d_deep_pmax_ends_in_bounded_work(tmp_path, pmax):
    # every factor used to evaluate all 2^(p-1) lattice points, far off the
    # grid too; depths past the int64 lattice starts are refused
    path = tmp_path / "in.sfr2"
    write_sfr2(path, np.random.default_rng(8).standard_normal((16, 16)), DOMAIN_TIME)
    proc, peak_kib = run_cli_measured("roundtrip2d", "--mu", "0.5", "--q", "4",
                                      "--window", "gaussian", "--n", "16", "--pmax", str(pmax),
                                      "--in", str(path))
    assert proc.returncode == (0 if pmax <= 62 else 2), proc.stderr
    if proc.returncode == 2:
        assert proc.stderr == f"error: p_max must be <= 62, got {pmax}\n"
    assert peak_kib < 256 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("command, mu", [("roundtrip", "0.00001"), ("roundtrip", "0.001"),
                                         ("roundtrip2d", "0.00001"), ("roundtrip2d", "0.001")])
def test_small_mu_lattice_is_refused_before_it_is_evaluated(tmp_path, command, mu):
    # a lattice of about n / mu points, 35 bins each for the Gaussian,
    # grew memory as 1/mu (325 MB at mu = 0.001); past 2^24 window
    # samples it is refused before it is built
    rng = np.random.default_rng(9)
    if command == "roundtrip":
        path, _ = make_input(tmp_path, n=256)
        argv = ("--alpha", "1", "--q", "8", "--n", "256")
    else:
        path = tmp_path / "in.sfr2"
        write_sfr2(path, rng.standard_normal((16, 16)), DOMAIN_TIME)
        argv = ("--q", "4", "--n", "16")
    proc, peak_kib = run_cli_measured(command, "--mu", mu, "--window", "gaussian", *argv,
                                      "--in", str(path))
    if mu == "0.001":
        # evaluated a block of points at a time: 325 MB when whole
        assert proc.returncode == 0, proc.stderr
        assert peak_kib < 128 * 1024
        return
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: a lattice of ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert peak_kib < 256 * 1024


@pytest.mark.parametrize("mu", ["1e-300", "2.5e-307", "5e-324"])
def test_tiny_mu_is_refused_on_one_short_line(tmp_path, mu):
    # the lattice holds about n / mu points: its counts print in %g form,
    # not as hundreds of digits, past the float range too; at 5e-324 n / mu
    # itself is past it
    path = tmp_path / "in.sfr2"
    write_sfr2(path, np.zeros((16, 16)), DOMAIN_TIME)
    commands = [("frame-bounds", "--alpha", "0.5", "--q", "2", "--n", "64"),
                ("stack", "--alpha", "0.5", "--n", "64")]
    if mu == "5e-324":  # a finite n / mu asks a corona deeper than P_MAX_CAP first
        commands.append(("roundtrip2d", "--q", "4", "--n", "16", "--in", str(path)))
    for argv in commands:
        proc = run_cli_quickly(*argv, "--mu", mu, "--window", "gaussian")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: a lattice of ")
        assert len(proc.stderr.strip().splitlines()) == 1 and len(proc.stderr) < 200


@pytest.mark.parametrize("mu", ["inf", "1e309"])
def test_infinite_mu_is_refused_on_one_line(tmp_path, mu):
    # an infinite mu put every lattice point but 0 at infinity: the 1D
    # commands ended in an IndexError, roundtrip2d in "math domain error"
    path1, _ = make_input(tmp_path, n=64)
    path2 = tmp_path / "in.sfr2"
    write_sfr2(path2, np.zeros((16, 16)), DOMAIN_TIME)
    frame = ("--alpha", "0.5", "--q", "2", "--n", "64")
    for argv in [("stack", "--alpha", "0.5", "--n", "64"), ("frame-bounds", *frame),
                 ("element", *frame, "--p", "1", "--k", "0", "--out", str(tmp_path / "el")),
                 ("roundtrip", *frame, "--in", str(path1)),
                 ("roundtrip2d", "--q", "4", "--n", "16", "--in", str(path2))]:
        proc = run_cli_quickly(*argv, "--mu", mu, "--window", "gaussian")
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr == "error: mu must be finite, got inf\n", argv


def test_frame_bounds_kmax_past_int64_is_clamped(capsys):
    # more shifts than the grid holds change nothing; the report keeps the
    # k_max given
    argv = ("frame-bounds", "--alpha", "0.5", "--mu", "0.5", "--q", "2", "--window", "gaussian",
            "--n", "64", "--json", "--kmax")
    proc = run_cli_quickly(*argv, str(1 << 63))
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["k_max"] == 1 << 63
    code, out, _ = run(capsys, *argv, "64")
    assert code == 0
    assert {**json.loads(out), "k_max": 1 << 63} == rep


@pytest.mark.parametrize("n", [1026, 16384, 1 << 30])
def test_basis_check_past_the_gram_cap_is_usage_error(n):
    # the Gram check forms two n x n matrices: 4.3 GB each at n = 16384
    proc = run_cli_quickly("basis-check", "--alpha", "0.5", "--n", str(n))
    assert proc.returncode == 2
    assert proc.stderr == f"error: exhaustive Gram check capped at n = 1024, got {n}\n"


@pytest.mark.parametrize("n", [(1 << 22) + 2, 1 << 30])
def test_basis_past_the_element_cap_is_usage_error(n):
    # one element and its concentration hold complex length-n arrays: 16 GiB each at 2^30
    proc = run_cli_quickly("basis", "--alpha", "0.5", "--p", "4", "--tau", "1", "--n", str(n))
    assert proc.returncode == 2
    assert proc.stderr == f"error: basis element grid capped at n = {1 << 22}, got {n}\n"


def test_roundtrip2d_rejects_wrong_rank(tmp_path, capsys):
    path = tmp_path / "in.sfr2"
    write_sfr2(path, np.zeros((4, 4, 4), dtype=complex), DOMAIN_FREQUENCY)
    code, _, _ = run(capsys, "roundtrip2d", "--mu", "0.5", "--q", "4",
                     "--window", "gaussian", "--n", "4", "--in", str(path))
    assert code == 2


def test_roundtrip2d_oversized_sfr2_header_is_usage_error(tmp_path):
    # three axes of 4e9 overflow any fixed-width element count
    path = tmp_path / "huge.sfr2"
    path.write_bytes(b"SFR2" + struct.pack("<I", 3) + struct.pack("<3I", *[4_000_000_000] * 3)
                     + b"\x01" + b"\x00" * 32)
    proc = run_cli_quickly("roundtrip2d", "--mu", "0.5", "--q", "4", "--window", "gaussian",
                           "--n", "16", "--in", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: truncated container")
    assert len(proc.stderr.strip().splitlines()) == 1


# ---------------------------------------------------------------- selftest


def test_selftest_subset_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--criteria", "1,2,11")
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("[")]
    assert len(lines) == 3
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_selftest_rejects_unknown_criterion(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--criteria", "1,99"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- environment


def test_thread_cap_env_round_trip(monkeypatch, capsys):
    import os
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # registers restore-on-exit
    monkeypatch.setenv("STOCKFRAME_THREADS", "2")
    code, _, _ = run(capsys, "partition", "--alpha", "0.5", "--pmax", "3")
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["MKL_NUM_THREADS"] == "2"


def test_thread_cap_rejects_garbage(monkeypatch, capsys):
    monkeypatch.setenv("STOCKFRAME_THREADS", "zero")
    code, _, err = run(capsys, "partition", "--alpha", "0.5", "--pmax", "3")
    assert code == 2
    assert "STOCKFRAME_THREADS" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stockframe.cli", "partition", "--alpha", "1", "--pmax", "4", "--csv"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    rows = proc.stdout.strip().splitlines()
    assert rows[1:] == ["0,0,1,1", "1,1,2,1", "2,2,4,2", "3,4,8,4", "4,8,16,8"]


# ------------------------------------------------------------ output contract


SPEC = ["--mu", "1", "--q", "4", "--window", "tgauss:0.10"]


@pytest.mark.parametrize("argv, code", [
    (["partition", "--alpha", "0.5", "--pmax", "9"], 0),
    (["partition", "--alpha", "0.5", "--pmax", "9", "--csv"], 0),
    (["basis", "--alpha", "0.5", "--p", "4", "--tau", "1", "--n", "64", "--out", "{tmp}/b"], 0),
    (["basis-check", "--alpha", "0.5", "--n", "64"], 0),
    (["stack", "--alpha", "0.5", "--mu", "1", "--window", "tgauss:0.10", "--n", "64", "--report"], 0),
    (["stack", "--alpha", "1", "--mu", "100", "--window", "tgauss:0.1", "--n", "48"], 3),
    (["frame-bounds", "--alpha", "0.5", *SPEC, "--n", "64"], 0),
    (["frame-bounds", "--alpha", "0", "--mu", "0.5", "--q", "1", "--window", "gaussian", "--n", "64"], 3),
    (["element", "--alpha", "0.5", *SPEC, "--n", "64", "--p", "1", "--k", "0", "--out", "{tmp}/e"], 0),
    (["roundtrip", "--alpha", "0.5", *SPEC, "--n", "64", "--in", "{tmp}/in.sfr1", "--out", "{tmp}/r"], 0),
    (["roundtrip", "--alpha", "0.5", "--mu", "0.5", "--q", "2", "--window", "gaussian", "--n", "64",
      "--in", "{tmp}/in.sfr1", "--tol", "1e-20"], 3),
    (["tile", "--d", "2", "--pmax", "2"], 0),
    (["roundtrip2d", *SPEC, "--n", "16", "--in", "{tmp}/in.sfr2"], 0),
    (["selftest", "--criteria", "1,11"], 0),
], ids=lambda v: " ".join(v[:4]).replace("{tmp}/", "") if isinstance(v, list) else None)
def test_text_and_json_runs_share_the_exit_code_and_echo_the_spec(tmp_path, capsys, argv, code):
    # one output path: the text run and the --json run of a subcommand end
    # alike, and --json prints one line of sorted keys, each spec flag in
    # its JSON form
    make_input(tmp_path, n=64)
    write_sfr2(tmp_path / "in.sfr2", np.random.default_rng(0).standard_normal((16, 16)) + 0j, DOMAIN_TIME)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    text_code, text, err = run(capsys, *argv)
    assert (text_code, err) == (code, "") and text.endswith("\n")
    json_code, out, err = run(capsys, *argv, "--json")
    assert (json_code, err) == (code, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n" and out.count("\n") == 1
    forms = {"--alpha": {"0.5": "1/2", "1": "1", "0": "0"}.get, "--mu": float, "--q": int,
             "--n": int, "--window": str}
    for flag, value in zip(argv, argv[1:]):
        if flag in forms:
            echo = payload[flag[2:]]
            assert echo == forms[flag](value) and type(echo) is type(forms[flag](value)), flag
