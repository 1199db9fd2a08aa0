"""Seeded inputs and output checks of the benchmark workloads.

A run repeats passes; a pass is one seeded list of ops, and an op is one
or more ``capwhitham`` command lines whose written files are checked
against values frozen in ``expected.json``.  The expected values were
taken from the program's own output and are kept here, apart from the
test suite.  Each workload stratifies its draws so that every seed gives
the same mix of request kinds, and hence about the same cost per pass.

This module does not import the package: the checks recompute what they
can (the dispersion symbol, the expansion size) independently.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))

# Root of phi(T; 2, 5), frozen from a 40-digit high-precision solve;
# every wave request starts from it.
T0_2_5 = EXPECTED["T0_2_5"]

T0_TOL = 1e-9
LIMIT_RTOL = 1e-9
BIFURCATION_RESIDUAL_TOL = 1e-13
WAVE_RESIDUAL_TOL = 1e-10
T_GRID_POINTS = 26

# Symmetric phase lattice pi/(k1*k2) of the pair (2, 5).
LATTICE_2_5 = math.pi / 10.0


@dataclass
class Op:
    """One benchmark op: CLI calls (without ``--out``) and what to expect.

    ``units`` is the number of ops it counts for: the pairs one ``pairs``
    call classifies on ``scan``, otherwise 1.
    """

    kind: str
    calls: list[list[str]]
    units: int = 1
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Checked result of one op, in units of ``Op.units``.

    ``refused`` counts requests beyond the attainable amplitude that end
    through the documented convergence-failure path (exit 3 with a
    report).  That is the program's correct answer to them, so they are
    neither ok nor failed.
    """

    ok: int = 0
    refused: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    newton_steps: int = 0


# A call result: (exit code, captured stdout, captured stderr).
CallResult = tuple[int, str, str]


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _listed(stdout: str, out: Path, names: list[str]) -> bool:
    """True iff stdout lists exactly the given files, each of which exists."""
    listed = [Path(line) for line in stdout.splitlines() if line]
    expected = [out / name for name in names]
    return listed == expected and all(p.is_file() for p in expected)


def _symbol(T: float, xi: float) -> float:
    return math.sqrt((1.0 + T * xi * xi) * math.tanh(xi) / xi)


# --------------------------------------------------------------------------
# scan: one serial refined pair scan over every pair up to kmax.


def scan_pass(rng: random.Random) -> list[Op]:
    """One ``pairs --refine`` call; the seed leaves the input unchanged."""
    kmax = EXPECTED["scan_kmax"]
    argv = ["pairs", "--kmax", str(kmax), "--refine", "--jobs", "1", "--format", "json"]
    return [Op("scan", [argv], units=kmax * (kmax - 1) // 2, params={"kmax": kmax})]


def scan_warmup() -> Op:
    argv = ["pairs", "--kmax", "5", "--refine", "--jobs", "1", "--format", "json"]
    return Op("scan", [argv], units=10, params={"kmax": 5})


def _verdict_mismatch(got: dict, want: dict) -> str | None:
    if got.get("error") is not None:
        return f"error {got['error']!r}"
    if got["status"] != want["status"]:
        return f"status {got['status']} != {want['status']}"
    for key in ("limit_low", "limit_high"):
        if not _close(got[key], want[key], LIMIT_RTOL):
            return f"{key} {got[key]!r} != {want[key]!r}"
    roots = [r["T0"] for r in got["roots"]]
    if len(roots) != len(want["roots"]):
        return f"{len(roots)} roots != {len(want['roots'])}"
    for t, t_want in zip(roots, want["roots"]):
        if abs(t - t_want) > T0_TOL:
            return f"root {t!r} != {t_want!r}"
    return None


def check_scan(op: Op, results: list[CallResult], out: Path, expected: dict) -> Outcome:
    kmax = op.params["kmax"]
    want = [v for v in expected["scan_verdicts"] if v["k2"] <= kmax]
    ((code, stdout, stderr),) = results
    if code != 0 or not _listed(stdout, out, ["pairs.json", "pairs.svg"]):
        return Outcome(failed=op.units, reasons=[f"pairs exit {code}: {stderr.strip()[-200:]}"])
    got = {(v["k1"], v["k2"]): v for v in _read_json(out / "pairs.json")}
    outcome = Outcome()
    for v in want:
        key = (v["k1"], v["k2"])
        problem = "missing" if key not in got else _verdict_mismatch(got[key], v)
        if problem is None:
            outcome.ok += 1
        else:
            outcome.failed += 1
            outcome.reasons.append(f"pair {key}: {problem}")
    return outcome


# --------------------------------------------------------------------------
# locate: bifurcation points, limits, roots and exact expansion of one pair.


def _locate_op(rng: random.Random, pair: dict) -> Op:
    flags = ["--k1", str(pair["k1"]), "--k2", str(pair["k2"])]
    lo, hi = rng.uniform(0.02, 0.08), rng.uniform(0.25, 0.32)
    calls = [
        ["bifurcate", *flags, "--T-grid", f"{lo!r}:{hi!r}:{T_GRID_POINTS}", "--format", "json"],
        ["phi", "limits", *flags],
        ["phi", "root", *flags],
        ["expand", *flags],
    ]
    return Op("locate", calls, params={"pair": (pair["k1"], pair["k2"]), "grid": (lo, hi)})


def locate_pass(rng: random.Random) -> list[Op]:
    """Every listed pair once and (2, 5) twice, in seeded order, with seeded T grids.

    With an odd count of ops per pass, ``op_p50_ms`` is the latency of
    one pair, (3, 7), not the midpoint between two pairs of unlike cost.
    """
    pairs = list(EXPECTED["locate_pairs"]) + [EXPECTED["locate_pairs"][0]]
    rng.shuffle(pairs)
    return [_locate_op(rng, pair) for pair in pairs]


def locate_warmup() -> Op:
    return _locate_op(random.Random(0), EXPECTED["locate_pairs"][0])


def _check_bifurcate(body: dict, k1: int, k2: int, lo: float, hi: float) -> str | None:
    points = body["points"]
    if body["pair"] != [k1, k2] or len(points) != T_GRID_POINTS:
        return "bifurcate: wrong pair or point count"
    for i, p in enumerate(points):
        T_want = lo + (hi - lo) * i / (T_GRID_POINTS - 1)
        if abs(p["T"] - T_want) > 1e-12:
            return f"bifurcate: T {p['T']!r} != {T_want!r}"
        T, c0, kappa0 = p["T"], p["c0"], p["kappa0"]
        if not (0.0 < c0 < 1.0 and kappa0 > 0.0 and p["residual"] <= BIFURCATION_RESIDUAL_TOL):
            return f"bifurcate: invalid point {p}"
        m1, m2 = _symbol(T, k1 * kappa0), _symbol(T, k2 * kappa0)
        if abs(m1 - m2) > 1e-12 or abs(m1 - c0) > 1e-12:
            return f"bifurcate: m_T(k1 kappa0), m_T(k2 kappa0), c0 disagree at T={T!r}"
    return None


def _locate_problem(op: Op, out: Path, want: dict, T0_2_5: float) -> str | None:
    k1, k2 = op.params["pair"]
    problem = _check_bifurcate(_read_json(out / "bifurcate.json"), k1, k2, *op.params["grid"])
    if problem:
        return problem
    limits = _read_json(out / "phi_limits.json")
    for key in ("limit_low", "limit_high"):
        if math.copysign(1.0, limits[key]) != math.copysign(1.0, want[key]):
            return f"{key} sign of {limits[key]!r}"
        if not _close(limits[key], want[key], LIMIT_RTOL):
            return f"{key} {limits[key]!r} != {want[key]!r}"
    roots = [r["T0"] for r in _read_json(out / "phi_roots.json")["roots"]]
    if len(roots) != len(want["roots"]):
        return f"{len(roots)} roots != {len(want['roots'])}"
    for t, t_want in zip(roots, want["roots"]):
        if abs(t - t_want) > T0_TOL:
            return f"root {t!r} != {t_want!r}"
    if (k1, k2) == (2, 5) and abs(roots[0] - T0_2_5) > T0_TOL:
        return f"(2,5) root {roots[0]!r} != {T0_2_5!r}"
    expansion = _read_json(out / "expansion.json")
    monomials = expansion["monomials"]
    if (expansion["N"], expansion["M"], len(monomials)) != (want["N"], want["M"], want["monomials"]):
        return "expansion N, M or monomial count differs"
    if sum(m["coeff"] for m in monomials) != want["N"]:
        return "expansion coefficients do not sum to N"
    if any(len(m["factors"]) != want["M"] for m in monomials):
        return "expansion monomial with the wrong factor count"
    return None


def check_locate(op: Op, results: list[CallResult], out: Path, expected: dict) -> Outcome:
    for code, _, stderr in results:
        if code != 0:
            return Outcome(failed=1, reasons=[f"exit {code}: {stderr.strip()[-200:]}"])
    want = next(
        p for p in expected["locate_pairs"] if (p["k1"], p["k2"]) == op.params["pair"]
    )
    problem = _locate_problem(op, out, want, expected["T0_2_5"])
    if problem:
        return Outcome(failed=1, reasons=[f"pair {op.params['pair']}: {problem}"])
    return Outcome(ok=1)


# --------------------------------------------------------------------------
# waves: solves on (2, 5) at T0, in a fixed mix of request kinds.


def _strata(rng: random.Random, lo: float, hi: float, n: int, spread: float = 1.0) -> list[float]:
    """One draw in each of n equal slices of [lo, hi], shuffled.

    Each draw is uniform on the middle ``spread`` share of its slice.
    """
    values = [
        lo + (hi - lo) * (i + 0.5 + spread * (rng.random() - 0.5)) / n for i in range(n)
    ]
    rng.shuffle(values)
    return values


def _wave_op(kind: str, mode: str, r1: float, r2: float, theta1: float, theta2: float,
             K: int = 64) -> Op:
    argv = [
        "wave", "--k1", "2", "--k2", "5",
        "--r1", repr(r1), "--r2", repr(r2),
        "--theta1", repr(theta1), "--theta2", repr(theta2),
        "--T", repr(T0_2_5),
    ]
    if K != 64:
        argv += ["--K", str(K)]
    return Op(kind, [argv], params={"mode": mode, "K": K})


def _off_lattice(rng: random.Random) -> tuple[float, float]:
    """Phases whose difference keeps |sin(10 (theta1 - theta2))| >= 0.7."""
    theta2 = rng.uniform(0.0, 2.0 * math.pi / 5.0)
    offset = (rng.randrange(10) + rng.uniform(0.25, 0.75)) * LATTICE_2_5
    return theta2 + offset, theta2


# Asymmetric requests per waves pass.  With 29 Picard solves to 9
# Newton-fallback ones, the median op falls at the Picard solves' 67th
# percentile, where they lie denser than at the 80th that 14 gave; the
# spread of op_p50_ms over seeds was 0.09 of its median with 14.
ASYM_PER_PASS = 28


def wave_pass(rng: random.Random) -> list[Op]:
    """38 requests: 29 Picard solves, 8 Newton-fallback solves, 1 refused.

    * ``asym``: asymmetric at r1, r2 in [5e-4, 4e-3]; Picard w-solve and a
      parameter Newton of 6 to 12 steps.
    * ``sym``: symmetric bimodal at r1 = r2 in [0.016, 0.03] on even
      lattice phases; the w-solve falls back to Newton with its probed
      Jacobian.  Its cost nearly doubles across the range, and the
      largest ones set ``op_tail_ms``, so each draw stays within a fifth
      of a sixth of the range.
    * ``sym-k128``: the same at r = 0.02 with K = 128.
    * ``uni-newton``: unimodal in k1 at r = 0.029, above the Picard limit
      near r = 0.028, so it takes the Newton fallback.
    * ``uni-picard``: unimodal in k2 at r in [0.016, 0.03], Picard.
    * ``beyond``: the amplitude and phases of acceptance criterion 8,
      r1 = r2 = 0.05, theta1 = pi/20, theta2 = 0, past the fold of the
      small-solution branch; today it ends with exit 3.

    One request of a kind per pass costs the same for every seed only
    at a fixed amplitude, so those kinds draw only a phase (a
    translation of the wave), and ``beyond`` draws nothing: its cost
    depends on where the Newton gives up, which moves with the phase.
    The two slowest requests (``sym-k128``, ``beyond``) are 2 of 38, so
    the 90th percentile ``op_tail_ms`` falls among the ``sym`` requests,
    not on the edge between the two groups, whatever the pass count.
    """
    ops = [
        _wave_op("asym", "asymmetric", r1, r2, *_off_lattice(rng))
        for r1, r2 in zip(_strata(rng, 5e-4, 4e-3, ASYM_PER_PASS), _strata(rng, 5e-4, 4e-3, ASYM_PER_PASS))
    ]
    for r in _strata(rng, 0.016, 0.03, 6, spread=0.2):
        theta2 = rng.uniform(0.0, 2.0 * math.pi / 5.0)
        theta1 = theta2 + 2.0 * LATTICE_2_5 * rng.randrange(5)
        ops.append(_wave_op("sym", "symmetric", r, r, theta1, theta2))
    theta = rng.uniform(0.0, 2.0 * math.pi / 5.0)
    ops.append(_wave_op("sym-k128", "symmetric", 0.02, 0.02, theta, theta, K=128))
    ops.append(_wave_op("uni-newton", "unimodal", 0.029, 0.0, rng.uniform(0.0, math.pi), 0.0))
    ops.append(_wave_op("uni-picard", "unimodal", 0.0, rng.uniform(0.016, 0.03),
                        0.0, rng.uniform(0.0, 2.0 * math.pi / 5.0)))
    ops.append(_wave_op("beyond", "asymmetric", 0.05, 0.05, math.pi / 20.0, 0.0))
    rng.shuffle(ops)
    return ops


def wave_warmup() -> Op:
    return _wave_op("asym", "asymmetric", 1e-3, 1e-3, 0.1, 0.03)


def _wave_problem(op: Op, stdout: str, out: Path, report: dict) -> str | None:
    if not _listed(stdout, out, ["wave_profile.csv", "wave_report.json"]):
        return "stdout does not list the profile and report"
    if not report.get("converged"):
        return "report not converged"
    if report["residuals"]["J_inf"] > WAVE_RESIDUAL_TOL:
        return f"residual_J_inf {report['residuals']['J_inf']!r}"
    if report["mode"] != op.params["mode"] or report["K"] != op.params["K"]:
        return f"mode {report['mode']} or K {report['K']} not as requested"
    if not (0.0 < report["T"] < 1.0 / 3.0 and 0.0 < report["c"] < 1.0):
        return f"T {report['T']!r} or c {report['c']!r} out of range"
    lines = (out / "wave_profile.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "x,u" or len(lines) != 1025:
        return "profile csv malformed"
    return None


def _refused_cleanly(code: int, stderr: str, out: Path) -> bool:
    """Exit 3 with a non-converged report; a raised failure adds an envelope."""
    path = out / "wave_report.json"
    if code != 3 or not path.is_file():
        return False
    report = _read_json(path)
    if report.get("converged") is not False:
        return False
    if "error" not in report:
        return True
    lines = stderr.strip().splitlines()
    return bool(lines) and json.loads(lines[-1]).get("code") == 3


def check_wave(op: Op, results: list[CallResult], out: Path, expected: dict) -> Outcome:
    ((code, stdout, stderr),) = results
    if code == 0:
        report = _read_json(out / "wave_report.json")
        problem = _wave_problem(op, stdout, out, report)
        if problem:
            return Outcome(failed=1, reasons=[f"{op.kind} {op.calls[0][6:12]}: {problem}"])
        return Outcome(ok=1, newton_steps=report["iterations_newton"])
    if op.kind == "beyond" and _refused_cleanly(code, stderr, out):
        return Outcome(refused=1)
    return Outcome(
        failed=1, reasons=[f"{op.kind} {op.calls[0][6:12]}: exit {code}: {stderr.strip()[-200:]}"]
    )


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[random.Random], list[Op]]
    warmup: Callable[[], Op]
    check: Callable[[Op, list[CallResult], Path, dict], Outcome]


WORKLOADS = {
    "scan": Workload(scan_pass, scan_warmup, check_scan),
    "locate": Workload(locate_pass, locate_warmup, check_locate),
    "waves": Workload(wave_pass, wave_warmup, check_wave),
}
