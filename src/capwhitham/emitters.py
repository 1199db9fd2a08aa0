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

import functools
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .coefficients import PhiExpansion
from .waves import SolveReport, WaveProfile

__all__ = [
    "write_text",
    "json_text",
    "csv_text",
    "write_table",
    "field_dict",
    "expansion_json",
    "wave_profile_csv",
    "wave_report_dict",
    "error_envelope",
]


def write_text(path: Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def json_text(obj) -> str:
    """Indented JSON with a trailing newline, the form of every JSON file."""
    return json.dumps(obj, indent=2) + "\n"


def csv_text(columns, rows) -> str:
    """Header line, then one line per row; ``None`` is an empty cell."""
    lines = [",".join(columns)]
    lines.extend(",".join("" if v is None else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_table(out, stem: str, fmt: str, columns, rows, body) -> Path:
    """Write ``stem.json`` from ``body`` or ``stem.csv`` from the rows."""
    if fmt == "json":
        return write_text(Path(out) / f"{stem}.json", json_text(body))
    return write_text(Path(out) / f"{stem}.csv", csv_text(columns, rows))


def field_dict(obj) -> dict:
    """The fields of dataclass instance ``obj`` by name, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def expansion_json(expansion: PhiExpansion) -> str:
    """Canonical serialization of an exact expansion (lex-sorted monomials).

    Writes the bytes of ``json_text(expansion.to_dict())`` from the rows in
    one join: per monomial, a head cell with its coefficient, then each
    factor's text by its column in ks, the last one closing the monomial.
    """
    pair, ks, columns = expansion.pair, expansion.ks, expansion.factor_columns()
    n, m = columns.shape
    top = {"pair": [pair.k1, pair.k2], "prefactor_exponent": expansion.prefactor_exponent}
    header = json_text({**top, "N": expansion.coefficient_total, "M": m})
    close = "\n      ]\n    }"
    text = [f"\n        {k}," for k in ks] + [f"\n        {k}{close}" for k in ks]
    columns[:, -1:] += len(ks)
    start, end = ',\n    {\n      "coeff": ', ',\n      "factors": [' + ("" if m else "]\n    }")
    # The header ends in "\n}\n"; the monomial list goes before that brace.
    cells = np.empty(n * (m + 1) + 2, dtype=object)
    cells[0], cells[-1] = header[:-3] + ',\n  "monomials": [', "\n  ]\n}\n"
    rows = cells[1:-1].reshape(n, m + 1)
    rows[:, 0] = [f"{start}{c}{end}" for c in expansion.coeffs.tolist()]
    rows[:, 1:] = np.array(text, dtype=object)[columns]
    rows[0, 0] = rows[0, 0][1:]  # no comma before the first monomial
    return "".join(cells.tolist())


@functools.lru_cache(maxsize=8)
def _profile_x_cells(n: int) -> tuple[str, ...]:
    """The x column of an n-point profile, as CSV cells."""
    return tuple(map(repr, (2.0 * np.pi * np.arange(n) / n).tolist()))


def wave_profile_csv(profile: WaveProfile) -> str:
    """The profile on 1024 grid points, or 2K+2 where K needs more.

    The bytes of ``csv_text`` over the (x, u) rows, written in one join.
    """
    n = max(1024, 2 * profile.K + 2)
    rows = zip(_profile_x_cells(n), map(repr, profile.sample(n).tolist()))
    return "x,u\n" + "\n".join(map(",".join, rows)) + "\n"


# SolveReport's residual fields and their keys under the report's "residuals".
_RESIDUAL_KEYS = {
    "residual_J_inf": "J_inf", "residual_orthogonality": "orthogonality",
    "residual_lindep": "linear_dependence", "g_inf": "g_inf",
}


def wave_report_dict(
    report: SolveReport | None, pair, params, K: int, asymmetric: bool, error: dict | None = None
) -> dict:
    """Report JSON body; ``error`` replaces the ``report`` fields on failure.

    The ``params`` fields follow the pair; the ``report`` fields, which
    overwrite ``converged``, end with T, the period pi/kappa and the residuals.
    """
    body = {"pair": [pair.k1, pair.k2], **field_dict(params), "K": K, "asymmetric": asymmetric}
    body["converged"] = False
    if report is not None:
        solved = field_dict(report)
        residuals = {key: solved.pop(name) for name, key in _RESIDUAL_KEYS.items()}
        body.update(solved, period=math.pi / report.kappa, residuals=residuals)
    if error is not None:
        body["error"] = error
    return body


def _json_safe(value):
    """``value`` with each non-finite float, however nested, written as its repr."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def error_envelope(code: int, message: str, context: dict | None = None) -> str:
    """One-line machine-readable error record for stderr.

    It is strict JSON (RFC 8259): a non-finite float in the context is
    written as the string "nan", "inf" or "-inf", and any other value
    that JSON cannot hold as its ``repr``.
    """
    return json.dumps(
        {"code": code, "message": message, "context": _json_safe(context or {})},
        default=repr,
        allow_nan=False,
    )
