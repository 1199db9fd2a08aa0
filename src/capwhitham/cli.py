"""Command-line surface: bifurcate, phi, pairs, wave, expand.

Every command writes deterministic files into the output directory and
prints their paths on stdout.  Errors emit a one-line JSON envelope
``{code, message, context}`` on stderr with exit codes 0 (success),
2 (domain error), 3 (convergence failure) and 4 (resource guard).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
import warnings
from pathlib import Path

import numpy as np

from . import emitters, svg
from .coefficients import expand_symbolic
from .errors import (
    CapWhithamError,
    ConvergenceError,
    DomainError,
    SizeGuardError,
)
from .symbol import WaveNumberPair, bifurcation_grid, guard_grid_size
from .symmetry_breaking import (
    DEFAULT_GRID_SIZE,
    STATUS_ADMITS,
    STATUS_EXCLUDED_DIFFERENCE,
    STATUS_EXCLUDED_DIVISOR,
    pair_scan,
    phi_curve,
    phi_eval,
    phi_limits,
    phi_root,
)
from .waves import ModalParameters, SolverSettings, asymmetry_test, solve_wave

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_RESOURCE = 4


def _add_pair_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k1", type=int, required=True, help="lower wavenumber")
    parser.add_argument("--k2", type=int, required=True, help="upper wavenumber")


def _add_output_flags(parser: argparse.ArgumentParser, tabular: bool = True) -> None:
    parser.add_argument("--out", type=Path, default=".", help="output directory")
    if tabular:
        parser.add_argument("--format", choices=["csv", "json"], help="tabular output format")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It holds no handlers: ``main`` looks up ``_cmd_<command>`` in this
    module at call time.
    """
    parser = argparse.ArgumentParser(
        prog="capwhitham",
        description=(
            "Symmetry-breaking bifurcation toolkit for the capillary-gravity "
            "Whitham equation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bifurcate", help="solve double bifurcation points")
    _add_pair_flags(p)
    p.add_argument("--T", type=float, default=None, help="surface tension")
    p.add_argument(
        "--T-grid", default=None, metavar="A:B:N", help="inclusive grid of N tensions"
    )
    _add_output_flags(p)

    p = sub.add_parser("phi", help="evaluate/analyse the symmetry-breaking function")
    p.add_argument(
        "action", choices=["eval", "root", "limits", "curve"], help="phi operation"
    )
    _add_pair_flags(p)
    p.add_argument("--T", type=float, default=None, help="surface tension (eval)")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, help="sample points")
    _add_output_flags(p)

    p = sub.add_parser("pairs", help="classify wavenumber pairs up to kmax")
    p.add_argument("--kmax", type=int, required=True, help="largest wavenumber")
    p.add_argument(
        "--refine", action="store_true", help="scan undecided pairs for roots"
    )
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, help="sample points per pair")
    jobs = inspect.signature(pair_scan).parameters["jobs"].default
    p.add_argument("--jobs", type=int, default=jobs, help="parallel workers")
    _add_output_flags(p)

    p = sub.add_parser("wave", help="solve a small-amplitude travelling wave")
    _add_pair_flags(p)
    p.add_argument("--r1", type=float, required=True, help="first modal amplitude")
    p.add_argument("--r2", type=float, required=True, help="second modal amplitude")
    p.add_argument("--theta1", type=float, default=ModalParameters.theta1, help="first modal phase")
    p.add_argument("--theta2", type=float, default=ModalParameters.theta2, help="second modal phase")
    p.add_argument("--T", type=float, required=True, help="initial surface tension")
    p.add_argument("--K", type=int, default=SolverSettings.K, help="Fourier truncation order")
    p.add_argument("--tol-w", type=float, default=SolverSettings.tol_w, help="remainder tolerance")
    _add_output_flags(p, tabular=False)

    p = sub.add_parser("expand", help="exact symbolic expansion of phi")
    _add_pair_flags(p)
    _add_output_flags(p, tabular=False)

    return parser


def _make_pair(k1: int, k2: int) -> WaveNumberPair:
    pair = WaveNumberPair(k1, k2)
    if (pair.k1, pair.k2) != (k1, k2):
        print(
            emitters.error_envelope(
                0,
                "wavenumber pair reduced to coprime form",
                {"input": [k1, k2], "reduced": [pair.k1, pair.k2]},
            ),
            file=sys.stderr,
        )
    return pair


def _parse_t_grid(spec: str) -> list[float]:
    try:
        a, b, n = spec.split(":")
        lo, hi, count = float(a), float(b), int(n)
    except ValueError as exc:
        raise DomainError("T grid must be A:B:N", spec=spec) from exc
    if count < 1:
        raise DomainError("T grid needs at least one point", spec=spec)
    guard_grid_size(count)
    if count == 1:
        return [lo]
    return [float(t) for t in np.linspace(lo, hi, count)]


def _records(columns, rows) -> list[dict]:
    return [dict(zip(columns, row)) for row in rows]


def _cmd_bifurcate(args) -> tuple[list[Path], int]:
    if (args.T is None) == (args.T_grid is None):
        raise DomainError("bifurcate needs exactly one of --T and --T-grid")
    pair = _make_pair(args.k1, args.k2)
    tensions = [args.T] if args.T is not None else _parse_t_grid(args.T_grid)
    columns = ("T", "c0", "kappa0", "residual")
    rows = [(p.T, p.c0, p.kappa0, p.residual) for p in bifurcation_grid(pair, tensions)]
    body = {"pair": [pair.k1, pair.k2], "points": _records(columns, rows)}
    fmt = args.format or "csv"
    path = emitters.write_table(args.out, "bifurcate", fmt, columns, rows, body)
    return [path], EXIT_OK


def _cmd_phi(args) -> tuple[list[Path], int]:
    pair = _make_pair(args.k1, args.k2)
    body = {"pair": [pair.k1, pair.k2]}
    if args.action == "eval":
        if args.T is None:
            raise DomainError("phi eval needs --T")
        sample = phi_eval(pair, args.T)
        stem, columns = "phi_eval", ("T", "phi", "c0", "kappa0")
        point = sample.bifurcation
        rows = [(sample.T, sample.value, point.c0, point.kappa0)]
        body.update(zip(columns, rows[0]))
    elif args.action == "root":
        roots = phi_root(pair, args.grid)
        stem, columns = "phi_roots", ("T0", "bracket_lo", "bracket_hi", "slope")
        rows = [(r.T0, r.bracket[0], r.bracket[1], r.slope) for r in roots]
        body["roots"] = [emitters.field_dict(r) for r in roots]
    elif args.action == "limits":
        stem, columns = "phi_limits", ("limit_low", "limit_high")
        rows = [phi_limits(pair)]
        body.update(zip(columns, rows[0]))
    else:
        stem, columns = "phi_curve", ("T", "phi")
        rows = [(s.T, s.value) for s in phi_curve(pair, args.grid)]
        body["samples"] = _records(columns, rows)
    fmt = args.format or ("csv" if args.action == "curve" else "json")
    paths = [emitters.write_table(args.out, stem, fmt, columns, rows, body)]
    if args.action == "curve":
        plot = svg.line_plot(
            rows, xlabel="T", ylabel=f"phi(T; {pair.k1}, {pair.k2})", hline=0.0
        )
        paths.append(emitters.write_text(args.out / "phi_curve.svg", plot))
    return paths, EXIT_OK


def _cmd_pairs(args) -> tuple[list[Path], int]:
    verdicts = pair_scan(args.kmax, refine=args.refine, grid_size=args.grid, jobs=args.jobs)
    columns = ("k1", "k2", "status", "limit_low", "limit_high", "n_roots", "T0_first")
    rows = [
        (
            v.k1,
            v.k2,
            v.status,
            v.limit_low,
            v.limit_high,
            len(v.roots),
            v.roots[0].T0 if v.roots else None,
        )
        for v in verdicts
    ]
    body = [
        {
            **emitters.field_dict(v),
            "reduced": [v.reduced.k1, v.reduced.k2],
            "roots": [emitters.field_dict(r) for r in v.roots],
        }
        for v in verdicts
    ]
    fmt = args.format or "csv"
    paths = [emitters.write_table(args.out, "pairs", fmt, columns, rows, body)]
    dots = [(v.k1, v.k2) for v in verdicts if v.status == STATUS_ADMITS]
    plot = svg.scatter_plot(
        dots,
        xlabel="k1",
        ylabel="k2",
        extent=(1.0, float(args.kmax), 1.0, float(args.kmax)),
    )
    paths.append(emitters.write_text(args.out / "pairs.svg", plot))
    # The files have no error column: name the pairs an error left undecided.
    errored = [{"pair": [v.k1, v.k2], "error": v.error} for v in verdicts if v.error]
    if errored:
        envelope = emitters.error_envelope(0, "pairs left undecided by an error", {"errors": errored})
        print(envelope, file=sys.stderr)
    # Excluded verdicts never carry an error, so only the classified ones count.
    excluded = (STATUS_EXCLUDED_DIVISOR, STATUS_EXCLUDED_DIFFERENCE)
    classified = [v for v in verdicts if v.status not in excluded]
    all_errored = bool(classified) and all(v.error for v in classified)
    return paths, (EXIT_CONVERGENCE if all_errored else EXIT_OK)


def _cmd_wave(args) -> tuple[list[Path], int]:
    pair = _make_pair(args.k1, args.k2)
    params = ModalParameters(
        r1=args.r1, r2=args.r2, theta1=args.theta1, theta2=args.theta2
    )
    settings = SolverSettings(K=args.K, tol_w=args.tol_w)
    asymmetric = asymmetry_test(pair, params)
    try:
        profile, report = solve_wave(pair, params, args.T, settings)
    except ConvergenceError as exc:
        error = {"message": exc.message, "context": repr(exc.context)}
        body = emitters.wave_report_dict(None, pair, params, settings.K, asymmetric, error)
        path = emitters.write_text(args.out / "wave_report.json", emitters.json_text(body))
        print(path)
        raise
    body = emitters.wave_report_dict(report, pair, params, settings.K, asymmetric)
    paths = [
        emitters.write_text(args.out / "wave_profile.csv", emitters.wave_profile_csv(profile)),
        emitters.write_text(args.out / "wave_report.json", emitters.json_text(body)),
    ]
    return paths, EXIT_OK


def _cmd_expand(args) -> tuple[list[Path], int]:
    pair = _make_pair(args.k1, args.k2)
    expansion = expand_symbolic(pair)
    path = emitters.write_text(args.out / "expansion.json", emitters.expansion_json(expansion))
    return [path], EXIT_OK


def _exit_code(exc: CapWhithamError) -> int:
    if isinstance(exc, SizeGuardError):
        return EXIT_RESOURCE
    if isinstance(exc, ConvergenceError):
        return EXIT_CONVERGENCE
    return EXIT_DOMAIN


def _warning_envelope(message, category, *_) -> None:
    """Show a warning, such as k1 = 1's, as a code-0 envelope on stderr."""
    context = {"category": category.__name__}
    print(emitters.error_envelope(0, str(message), context), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()[f"_cmd_{args.command}"]
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_envelope
            paths, code = handler(args)
    except CapWhithamError as exc:
        code = _exit_code(exc)
        print(emitters.error_envelope(code, exc.message, exc.context), file=sys.stderr)
        return code
    for path in paths:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
