"""Deterministic CSV and JSON emitters for the command-line surface.

All emitters format floats with ``repr`` (shortest round-trip form),
sort collections canonically, and never include timestamps, so repeated
runs with identical inputs produce byte-identical files.  CSV uses '.'
decimals, '\\n' line endings and UTF-8.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .coefficients import PhiExpansion
from .symbol import BifurcationPoint
from .symmetry_breaking import PairVerdict, PhiRoot, PhiSample
from .waves import SolveReport, WaveProfile

__all__ = [
    "fmt_float",
    "write_text",
    "json_text",
    "bifurcation_csv",
    "bifurcation_json",
    "phi_sample_json",
    "phi_curve_csv",
    "phi_roots_csv",
    "phi_roots_json",
    "phi_limits_json",
    "verdicts_csv",
    "verdicts_json",
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


def _point_dict(point: BifurcationPoint) -> dict:
    return {
        "T": point.T,
        "c0": point.c0,
        "kappa0": point.kappa0,
        "residual": point.residual,
    }


def bifurcation_csv(points: list[BifurcationPoint]) -> str:
    lines = ["T,c0,kappa0,residual"]
    for p in points:
        lines.append(
            ",".join(fmt_float(v) for v in (p.T, p.c0, p.kappa0, p.residual))
        )
    return "\n".join(lines) + "\n"


def bifurcation_json(pair, points: list[BifurcationPoint]) -> str:
    return json_text(
        {
            "pair": [pair.k1, pair.k2],
            "points": [_point_dict(p) for p in points],
        }
    )


def phi_sample_json(pair, sample: PhiSample) -> str:
    return json_text(
        {
            "pair": [pair.k1, pair.k2],
            "T": sample.T,
            "phi": sample.value,
            "c0": sample.bifurcation.c0,
            "kappa0": sample.bifurcation.kappa0,
        }
    )


def phi_curve_csv(samples: list[PhiSample]) -> str:
    lines = ["T,phi"]
    for s in samples:
        lines.append(f"{fmt_float(s.T)},{fmt_float(s.value)}")
    return "\n".join(lines) + "\n"


def _root_dict(root: PhiRoot) -> dict:
    return {
        "T0": root.T0,
        "bracket": [root.bracket[0], root.bracket[1]],
        "slope": root.slope,
    }


def phi_roots_json(pair, roots: list[PhiRoot]) -> str:
    return json_text(
        {"pair": [pair.k1, pair.k2], "roots": [_root_dict(r) for r in roots]}
    )


def phi_roots_csv(roots: list[PhiRoot]) -> str:
    lines = ["T0,bracket_lo,bracket_hi,slope"]
    for r in roots:
        lines.append(
            ",".join(
                fmt_float(v) for v in (r.T0, r.bracket[0], r.bracket[1], r.slope)
            )
        )
    return "\n".join(lines) + "\n"


def phi_limits_json(pair, low: float, high: float) -> str:
    return json_text(
        {"pair": [pair.k1, pair.k2], "limit_low": low, "limit_high": high}
    )


def _verdict_row(v: PairVerdict) -> list[str]:
    return [
        str(v.k1),
        str(v.k2),
        v.status,
        "" if v.limit_low is None else fmt_float(v.limit_low),
        "" if v.limit_high is None else fmt_float(v.limit_high),
        str(len(v.roots)),
        fmt_float(v.roots[0].T0) if v.roots else "",
    ]


def verdicts_csv(verdicts: list[PairVerdict]) -> str:
    lines = ["k1,k2,status,limit_low,limit_high,n_roots,T0_first"]
    for v in verdicts:
        lines.append(",".join(_verdict_row(v)))
    return "\n".join(lines) + "\n"


def verdicts_json(verdicts: list[PairVerdict]) -> str:
    items = []
    for v in verdicts:
        items.append(
            {
                "k1": v.k1,
                "k2": v.k2,
                "reduced": [v.reduced.k1, v.reduced.k2],
                "status": v.status,
                "limit_low": v.limit_low,
                "limit_high": v.limit_high,
                "roots": [_root_dict(r) for r in v.roots],
                "error": v.error,
            }
        )
    return json_text(items)


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
    values = profile.sample(n)
    xs = 2.0 * np.pi * np.arange(n) / n
    lines = ["x,u"]
    for x, u in zip(xs, values):
        lines.append(f"{fmt_float(x)},{fmt_float(u)}")
    return "\n".join(lines) + "\n"


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
