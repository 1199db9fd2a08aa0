"""The benchmark's tracer and output checks work against the package."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # bench/tracing.py rebinds these names with getattr; a refactor that
    # deletes or renames one would otherwise break only `--trace 1`.
    tracing = _load_tracing()
    names = tracing.SPANNED + tracing.COUNTED
    assert names
    for module, name in names:
        target = importlib.import_module(f"capwhitham.{module}")
        assert callable(getattr(target, name)), (module, name)


def test_result_hooks_read_real_return_values(tmp_path):
    # Each result hook reads an argument or a field of the return value
    # (write_text's text, the monomial list, the root list, the w-solve
    # iterations and method); renaming one would otherwise break only
    # `--trace 1`.  The calls go through the module attributes, which
    # the installed tracer has rebound.
    from capwhitham import coefficients, emitters, symmetry_breaking, waves
    from capwhitham.symbol import WaveNumberPair, double_bifurcation

    tracing = _load_tracing()
    pair = WaveNumberPair(2, 5)
    T = 0.121474418228
    point = double_bifurcation(pair, T)
    # Above the Picard limit, so the w solve takes the Newton fallback.
    v = waves.synthesize_v(pair, waves.ModalParameters(0.03, 0.0), K=32)
    calls = {
        "emitters.write_text": lambda: emitters.write_text(tmp_path / "a.txt", "text"),
        "coefficients.expand_symbolic": lambda: coefficients.expand_symbolic(pair),
        "symmetry_breaking.phi_root": lambda: symmetry_breaking.phi_root(pair),
        "waves.solve_w": lambda: waves.solve_w(v, point.c0, point.kappa0, T),
    }
    assert sorted(calls) == sorted(tracing._RESULT_HOOKS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for call in calls.values():
            call()
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["emitters.write_text.bytes"] == 4
    assert counts["coefficients.expand_symbolic.monomials"] == 13
    assert counts["symmetry_breaking.phi_root.roots"] == 1
    assert counts["waves.solve_w.iterations"] > 0
    assert counts["waves.solve_w.newton"] == 1
    for name in calls:
        assert counts[name + ".calls"] == 1
        assert counts[name + ".raised"] == 0


def test_bench_self_check_passes():
    # The self-check compares a scan's pairs.json and a phi root's
    # phi_roots.json with bench/expected.json, and shows that corrupted
    # expected values fail; an output that drifts fails here before any
    # benchmark run.
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
