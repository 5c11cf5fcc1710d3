"""One-time calibration of envelope constants, frozen into a JSON fixture.

The asymptotic statements verified by this package leave every implied
constant unspecified.  Calibration measures the residuals once on a designated
alpha set, applies a fixed safety margin, and freezes the result; the
verification suites are regression tests against the frozen file, never
claims about the true constants.  A rerun does not reproduce the frozen file
bit for bit once the product kernels change; verification reads the file.
The theorem laws are fitted on the rows of `LAW_FITS`, through the same
report code (`sudler.cli.LAWS`) that `verify --suite theoremN` runs.
"""

from __future__ import annotations

import importlib.resources
import math
import re

import numpy as np

from . import serialize
from .cf import build_table
from .cotangent import digamma, v_k, v_k_star
from .errors import SudlerError
from .limitfn import empirical_limit, g_alpha
from .ostrowski import delta_T_default, encode
from .products import log_sudler
from .theorems import u_n_log

MARGIN = 1.5
CURVE_BUDGET_OVERRIDE = 15_000_000  # q_6 for [0;(15)] is 1.165e7

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


# --- individual calibrations ---


def _vk_envelopes() -> tuple[dict, dict]:
    a = 15
    table = build_table(f"[0;({a})]", 5)
    plain, starred = 0.0, 0.0
    for k in (4, 5):
        delta = float(table.delta[k])
        xs = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
        for x, v in zip(xs, v_k(table, k, xs)):
            resid = abs(v / delta - (math.log(a / (2 * math.pi)) - digamma(1.0 + x)))
            shape = (1.0 + 2.0 * math.log(a)) / ((1.0 - abs(x)) * a)
            plain = max(plain, resid / shape)
        xs = (-1.5, -0.75, 0.0, 0.75, 1.5)
        for x, v in zip(xs, v_k_star(table, k, xs)):
            resid = abs(v / delta - (math.log(a / (2 * math.pi)) - digamma(2.0 + x)))
            shape = (1.0 + 2.0 * math.log(a)) / ((2.0 - abs(x)) * a)
            starred = max(starred, resid / shape)
    return {"C_cal": plain * MARGIN}, {"C_cal": starred * MARGIN}


def _limit_curve() -> dict:
    table = build_table("[0;(15)]", 6)
    grid = np.round(np.arange(-0.95, 0.9501, 0.01), 10)
    closed = g_alpha(15, grid)
    sup4 = float(np.max(np.abs(empirical_limit(table, 4, grid) - closed)))
    curve6 = empirical_limit(table, 6, grid, budget=CURVE_BUDGET_OVERRIDE)
    sup6 = float(np.max(np.abs(curve6 - closed)))
    return {"a15_k4_sup": sup4 * 1.3, "a15_k6_sup": sup6 * 1.3}


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


# Unit constants make each report's error_budget exactly its budget shape.
_UNIT = {"C_cal": 1.0, "C_alpha": 0.0}

# The fit rows of the theorem laws: (law, alpha specs, c list, fit rule), each
# at K = 3 on tables built to 4.
LAW_FITS = (
    ("theorem1", ("[0;(10)]",), (), _split_budget),
    ("theorem2", ("[0;(30)]",), (0.05, 0.5, 1.0, 2.0, 8.0, 64.0), _anchored_fit),
    ("theorem3", ("[0;(30)]", "[0;(50)]"), (), _split_budget),
)


def _fit_law(law, specs, c_list, fit) -> dict:
    # The report code lives in cli, whose names the benchmark's tracer wraps;
    # cli imports this module for the fixtures, so the import waits until here.
    from .cli import LAWS

    return fit([r for spec in specs
                for r in LAWS[law](build_table(spec, 4), 3, {law: _UNIT}, c_list, 0)])


def _un_residual() -> dict:
    table = build_table("[0;(20)]", 5)
    K = 4
    cutoff = (1.0 - delta_T_default(1.0)) * 20
    rng = np.random.default_rng(20)
    resids = []
    for N in rng.integers(0, int(table.q[K]), size=60):
        digits = encode(table, int(N), K=K)
        if any(b > cutoff for b in digits.digits[1:]):
            continue
        un = u_n_log(digits)
        resids.append(
            log_sudler(table, int(N)).require_nonzero() - un.log_u - un.below_k0_log
        )
    lo, hi = min(resids), max(resids)
    pad = 0.25 * (hi - lo) + 0.05
    return {"lo": lo - pad, "hi": hi + pad}


def calibrate(out_path: str | None = None) -> dict:
    """Compute all frozen constants from the current kernels."""
    vk, vk_star = _vk_envelopes()
    fixtures = {
        "schema_version": serialize.SCHEMA_VERSION,
        "vk_envelope": vk,
        "vk_star_envelope": vk_star,
        "limit_curve": _limit_curve(),
        **{law: _fit_law(law, *row) for law, *row in LAW_FITS},
        "un_residual": _un_residual(),
    }
    if out_path is not None:
        save_fixtures(fixtures, out_path)
    return fixtures
