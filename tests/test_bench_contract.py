"""The boundaries the benchmark traces exist in excal.

`perfbench` wraps named excal functions and methods and refuses to run
when one it reads a metric from is gone. This checks the same names from
the test suite, so a refactor that renames or deletes one fails here and
not only in the benchmark's own tests. It only looks the names up; it
wraps nothing.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

from excal import jets  # noqa: E402


def test_every_required_boundary_exists():
    found = {
        name
        for layer in spans.LAYERS
        for name, *_ in spans._boundaries(layer, importlib.import_module(f"excal.{layer}"))
    }
    missing = [name for name in spans.REQUIRED if name not in found]
    assert not missing, f"traced boundaries missing from excal: {missing}"


def test_kernel_counter_exists():
    assert spans.KERNEL == "jets.mul_coeffs"
    assert callable(jets.mul_coeffs)
