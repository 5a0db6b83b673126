"""The package's public names, each read from its submodule's __all__."""

import importlib
import subprocess
import sys

import stockframe
from stockframe import basis

# the submodules in the order the package searches them
MODULES = ("spectral", "containers", "partition", "basis", "window", "frame1d", "tiling", "acceptance")


def test_every_exported_name_resolves_to_the_first_exporting_module():
    # every name a submodule exports, Run, MAX_DENOMINATOR, lattice_records,
    # CRITERIA and SEED included
    first = {}
    for name in MODULES:
        module = importlib.import_module(f"stockframe.{name}")
        for attr in module.__all__:
            first.setdefault(attr, module)
    for attr, module in first.items():
        assert getattr(stockframe, attr) is getattr(module, attr), attr
    assert stockframe.synthesize is basis.synthesize
    assert stockframe.__all__ == sorted(first) + sorted([*MODULES, "cli"])
    assert dir(stockframe) == sorted(stockframe.__all__)
    assert stockframe.cli is importlib.import_module("stockframe.cli")
    assert not hasattr(stockframe, "no_such_name")


def test_importing_the_package_imports_no_numpy():
    # the CLI applies its thread cap before numpy loads
    code = "import sys, stockframe\nprint(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'stockframe')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['stockframe']"]
