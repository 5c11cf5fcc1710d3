"""JSON and CSV emission with bit-exact real-number round-trips.

Machine-facing JSON stores every real as a hex-float string and every big
integer as a decimal string; CSV output (for plotting) uses repr floats and
carries a schema-version comment line.
"""

from __future__ import annotations

import json

import mpmath

from .cf import WORKING_BITS, ConvergentTable, build_table
from .errors import SudlerError

SCHEMA_VERSION = 1


def float_to_hex(x: float) -> str:
    return float(x).hex()


def float_from_hex(s: str) -> float:
    return float.fromhex(s)


def mpf_to_hex(x) -> str:
    """Exact textual form of an mpf as sign, hex mantissa, and base-2 exponent."""
    if not isinstance(x, mpmath.mpf):
        raise SudlerError(f"expected an mpf, got {type(x).__name__}")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return "0x0p+0"
    return f"{'-' if sign else ''}0x{man:x}p{exp:+d}"


def table_to_dict(table: ConvergentTable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": table.alpha.render(),
        "K_max": table.K_max,
        "working_bits": WORKING_BITS,
        "a": [str(x) for x in table.a],
        "p": [str(x) for x in table.p],
        "q": [str(x) for x in table.q],
        "theta": [mpf_to_hex(x) for x in table.theta],
        "delta": [mpf_to_hex(x) for x in table.delta],
        "eta": [mpf_to_hex(x) for x in table.eta],
        "alpha_value": mpf_to_hex(table.alpha_value),
    }


def table_from_dict(d: dict) -> ConvergentTable:
    """Rebuild the table a `table_to_dict` document describes, and check it.

    The table is `build_table(alpha, K_max)` again; any field the document
    states differently raises.  Keys that `table_to_dict` does not write,
    such as the "tail_depth" of older documents, are ignored.
    """
    table = build_table(d["alpha"], d["K_max"])
    for key, value in table_to_dict(table).items():
        if d.get(key) != value:
            raise SudlerError(f"table document field {key!r} differs from the table "
                              f"of {d['alpha']} at K_max={d['K_max']}")
    return table


def scan_result_to_dict(res) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "K": res.K,
        "q_K": str(res.q_K),
        "argmax_N": str(res.argmax_N),
        "max_log": float_to_hex(res.max_log),
        "sums": {repr(c): float_to_hex(v) for c, v in sorted(res.sums.items())},
        "top": [[str(n), float_to_hex(v)] for n, v in res.top],
    }


def dump_json(obj: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str, header: list[str], rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
