"""Deterministic CSV and JSON writers for the command-line surface.

One CSV writer, ``csv_text``, and one JSON writer, ``json_text``, serve
every tabular file; the command-line handlers choose each file's columns
and JSON body, and ``write_table`` writes whichever format was asked
for.  Floats are written with ``repr`` (shortest round-trip form),
collections are sorted canonically, and no file holds a timestamp, so
repeated runs with identical inputs produce byte-identical files.  CSV
uses '.' decimals, '\\n' line endings and UTF-8.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .coefficients import PhiExpansion
from .symmetry_breaking import PhiRoot
from .waves import SolveReport, WaveProfile

__all__ = [
    "fmt_float",
    "write_text",
    "json_text",
    "csv_text",
    "write_table",
    "root_dict",
    "expansion_json",
    "wave_profile_csv",
    "wave_report_dict",
    "error_envelope",
]


def fmt_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def write_text(path: Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def json_text(obj) -> str:
    """Indented JSON with a trailing newline, the form of every JSON file."""
    return json.dumps(obj, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def csv_text(columns, rows) -> str:
    """Header line, then one line per row; ``None`` is an empty cell."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_table(out, stem: str, fmt: str, columns, rows, body) -> Path:
    """Write ``stem.json`` from ``body`` or ``stem.csv`` from the rows."""
    if fmt == "json":
        return write_text(Path(out) / f"{stem}.json", json_text(body))
    return write_text(Path(out) / f"{stem}.csv", csv_text(columns, rows))


def root_dict(root: PhiRoot) -> dict:
    return {
        "T0": root.T0,
        "bracket": [root.bracket[0], root.bracket[1]],
        "slope": root.slope,
    }


def _factors_text(factors: tuple[int, ...]) -> str:
    if not factors:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, factors)) + "\n      ]"


def expansion_json(expansion: PhiExpansion) -> str:
    """Canonical serialization of an exact expansion (lex-sorted monomials).

    Writes the bytes of ``json_text(expansion.to_dict())``.  The monomial
    list, which can hold 10^4 entries, is formatted directly rather than
    by the json module's pure-Python indenting encoder.
    """
    header = json_text(
        {
            "pair": [expansion.pair.k1, expansion.pair.k2],
            "prefactor_exponent": expansion.prefactor_exponent,
            "N": expansion.coefficient_total,
            "M": expansion.factors_per_monomial,
        }
    )
    items = ",\n".join(
        f'    {{\n      "coeff": {m.coeff},\n      "factors": {_factors_text(m.factors)}\n    }}'
        for m in expansion.monomials
    )
    monomials = f"[\n{items}\n  ]" if items else "[]"
    # The header ends in "\n}\n"; the monomial list goes before that brace.
    return header[:-3] + f',\n  "monomials": {monomials}\n}}\n'


def wave_profile_csv(profile: WaveProfile, n: int = 1024) -> str:
    xs = 2.0 * np.pi * np.arange(n) / n
    return csv_text(("x", "u"), zip(xs, profile.sample(n)))


def wave_report_dict(
    report: SolveReport | None,
    pair,
    params,
    K: int,
    asymmetric: bool,
    error: dict | None = None,
) -> dict:
    """Report JSON body; ``error`` replaces solver fields on failure."""
    body = {
        "pair": [pair.k1, pair.k2],
        "r1": params.r1,
        "r2": params.r2,
        "theta1": params.theta1,
        "theta2": params.theta2,
        "K": K,
        "asymmetric": asymmetric,
    }
    if report is not None:
        body.update(
            {
                "converged": report.converged,
                "mode": report.mode,
                "w_method": report.w_method,
                "iterations_w": report.iterations_w,
                "iterations_newton": report.iterations_newton,
                "c": report.c,
                "kappa": report.kappa,
                "T": report.T,
                "period": None if report.kappa is None else math.pi / report.kappa,
                "residuals": {
                    "J_inf": report.residual_J_inf,
                    "orthogonality": report.residual_orthogonality,
                    "linear_dependence": report.residual_lindep,
                    "g_inf": report.g_inf,
                },
            }
        )
    else:
        body["converged"] = False
    if error is not None:
        body["error"] = error
    return body


def error_envelope(code: int, message: str, context: dict | None = None) -> str:
    """One-line machine-readable error record for stderr."""
    return json.dumps(
        {"code": code, "message": message, "context": context or {}},
        default=repr,
    )
