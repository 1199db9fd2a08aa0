"""The benchmark tracer's function names resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    # bench/tracing.py rebinds these names with getattr; a refactor that
    # deletes or renames one would otherwise break only `--trace 1`.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPANNED + tracing.COUNTED
    assert names
    for module, name in names:
        target = importlib.import_module(f"capwhitham.{module}")
        assert callable(getattr(target, name)), (module, name)
