"""The benchmark tracer's hooks still resolve in the package.

perfbench/tracing.py wraps package functions by name; a refactor that
removes or moves one silently zeroes that layer's metrics.  This loads the
tracer by path and checks each name it patches, so such a refactor fails
here and not only in perfbench/check_smoke.py.
"""

import importlib.util
from pathlib import Path

from sudler.cf import ConvergentTable

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_resolves():
    tracing = _load_tracing()
    paths = [p for _, home, sites, _ in tracing.PATCHES for p in (home, *sites)]
    assert [p for p in paths if tracing._resolve(p) is None] == []
    assert len(tracing.PATCHES) >= 19


def test_frac_doubles_kept_for_the_benchmark():
    assert callable(ConvergentTable.frac_doubles)
