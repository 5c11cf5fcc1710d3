"""One-time calibration of envelope constants, frozen into a JSON fixture.

The asymptotic statements verified by this package leave every implied
constant unspecified.  Calibration measures the residuals once on a designated
alpha set, applies a fixed safety margin, and freezes the result; the
verification suites are regression tests against the frozen file, never
claims about the true constants.  A rerun does not reproduce the frozen file
bit for bit once the product kernels change; verification reads the file.
Each group is fitted to what its check computes: `v_k_reports`,
`a15_curve_sup`, `u_n_residuals`, and the law reports on the rows of
`LAW_FITS`.  This module holds only the fit rules and their rows.
"""

from __future__ import annotations

import importlib.resources
import re

from . import serialize
from .cf import build_table
from .errors import SudlerError
from .limitfn import a15_curve_sup
from .theorems import (lcnorm_prediction, pnstar_prediction, theorem1_check, u_n_residuals,
                       v_k_reports)

MARGIN = 1.5

_HEXFLOAT = re.compile(r"^-?0x[0-9a-f]", re.IGNORECASE)


def _encode_reals(obj):
    if isinstance(obj, float):
        return serialize.float_to_hex(obj)
    if isinstance(obj, dict):
        return {k: _encode_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_reals(v) for v in obj]
    return obj


def _decode_reals(obj):
    if isinstance(obj, str) and _HEXFLOAT.match(obj):
        return serialize.float_from_hex(obj)
    if isinstance(obj, dict):
        return {k: _decode_reals(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_reals(v) for v in obj]
    return obj


def default_fixture_path() -> str:
    return str(importlib.resources.files("sudler").joinpath("data/calibration.json"))


def load_fixtures(path: str | None = None) -> dict:
    path = path or default_fixture_path()
    try:
        raw = serialize.load_json(path)
    except FileNotFoundError as exc:
        raise SudlerError(
            f"calibration fixtures not found at {path}; run `sudler calibrate`"
        ) from exc
    except (OSError, ValueError) as exc:  # a directory, unreadable, or not JSON
        raise SudlerError(f"cannot read calibration fixtures at {path}: {exc}") from exc
    return _decode_reals(raw)


def save_fixtures(fixtures: dict, path: str | None = None):
    serialize.dump_json(_encode_reals(fixtures), path or default_fixture_path())


# --- fit rules and rows ---


def _envelope_fit(reports) -> dict:
    # One constant: the margined largest residual per unit of budget shape.
    return {"C_cal": MARGIN * max(r.residual / r.error_budget for r in reports)}


def _split_budget(reports) -> dict:
    # Budget C_cal*shape + C_alpha must dominate every designated residual;
    # half the margined residual is carried by each term.
    return {"C_cal": 0.5 * MARGIN * max(r.residual / r.error_budget for r in reports),
            "C_alpha": 0.5 * MARGIN * max(r.residual for r in reports)}


def _anchored_fit(reports) -> dict:
    # Anchor the c-independent constant at the smallest shape sum (the largest
    # c); the c-dependent constant then covers the small-c residuals.
    C_alpha = max(MARGIN * min(reports, key=lambda r: r.error_budget).residual, 0.05)
    C_cal = max(max(0.0, MARGIN * r.residual - C_alpha) / r.error_budget for r in reports)
    return {"C_cal": max(C_cal, 0.01), "C_alpha": C_alpha}


def _band_fit(resids) -> dict:
    lo, hi = min(resids), max(resids)
    pad = 0.25 * (hi - lo) + 0.05
    return {"lo": lo - pad, "hi": hi + pad}


# Unit constants make each report's error_budget exactly its budget shape.
_UNIT = {"C_cal": 1.0, "C_alpha": 0.0}


def _vk_fit(starred: bool) -> dict:  # the V_k or V_k* envelope at a = 15, k = 4 and 5
    xs = (-1.5, -0.75, 0.0, 0.75, 1.5) if starred else (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
    table = build_table("[0;(15)]", 5)
    unit = {"vk_envelope": _UNIT, "vk_star_envelope": _UNIT}
    return _envelope_fit([r for k in (4, 5) for r in v_k_reports(table, k, xs, unit, starred)])


# The fit rows of the theorem laws: (law, alpha specs, the law's reports at
# K = 3 on a table built to 4, fit rule).
LAW_FITS = (
    ("theorem1", ("[0;(10)]",), lambda t, fx: theorem1_check(t, 3, fx), _split_budget),
    ("theorem2", ("[0;(30)]",),
     lambda t, fx: lcnorm_prediction(t, 3, fx, (0.05, 0.5, 1.0, 2.0, 8.0, 64.0)), _anchored_fit),
    ("theorem3", ("[0;(30)]", "[0;(50)]"), lambda t, fx: [pnstar_prediction(t, 3, fx)],
     _split_budget),
)


def _fit_law(law, specs, reports, fit) -> dict:
    return fit([r for spec in specs for r in reports(build_table(spec, 4), {law: _UNIT})])


def calibrate(out_path: str | None = None) -> dict:
    """Compute all frozen constants from the current kernels."""
    fixtures = {
        "schema_version": serialize.SCHEMA_VERSION,
        "vk_envelope": _vk_fit(False),
        "vk_star_envelope": _vk_fit(True),
        "limit_curve": {f"a15_k{k}_sup": 1.3 * a15_curve_sup(k) for k in (4, 6)},
        **{law: _fit_law(law, *row) for law, *row in LAW_FITS},
        "un_residual": _band_fit(u_n_residuals(build_table("[0;(20)]", 5), 4, seed=20, size=60)),
    }
    if out_path is not None:
        save_fixtures(fixtures, out_path)
    return fixtures
