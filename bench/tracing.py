"""Outside-in tracing of the capwhitham layers.

The tracer replaces public functions of the package with wrappers that
record spans (name, start, end, parent span, op id) or, for hot leaf
functions, only call counts.  A module that did ``from .symbol import
double_bifurcation`` holds its own reference, so every binding of the
original function object in every loaded ``capwhitham`` module is
replaced, and put back by :meth:`Tracer.uninstall`.  No file of the
package changes.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer boundaries timed with a span; a span's self time excludes the
# time of its direct child spans.
SPANNED = [
    ("cli", "main"),
    ("emitters", "write_text"),
    ("symbol", "turning_point"),
    ("symbol", "double_bifurcation"),
    ("symmetry_breaking", "phi_eval"),
    ("symmetry_breaking", "phi_curve"),
    ("symmetry_breaking", "phi_root"),
    ("symmetry_breaking", "phi_limits"),
    ("symmetry_breaking", "pair_scan"),
    ("coefficients", "expand_symbolic"),
    ("waves", "solve_wave"),
    ("waves", "symmetric_solve"),
    ("waves", "solve_w"),
]

# Called up to millions of times per pass at under a microsecond each:
# a span would cost more than the call, so these are only counted.
COUNTED = [
    ("symbol", "eval_symbol"),
    ("coefficients", "multiplier"),
    ("coefficients", "limit_ratio"),
]


def _write_text_bytes(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["emitters.write_text.bytes"] += len(text.encode("utf-8"))


def _expand_monomials(counts, args, kwargs, result):
    counts["coefficients.expand_symbolic.monomials"] += len(result.monomials)


def _phi_root_roots(counts, args, kwargs, result):
    counts["symmetry_breaking.phi_root.roots"] += len(result)


def _solve_w_result(counts, args, kwargs, result):
    counts["waves.solve_w.iterations"] += result.iterations
    counts["waves.solve_w.newton"] += result.method == "newton"


# Counts read off a spanned call's arguments or result.
_RESULT_HOOKS = {
    "emitters.write_text": _write_text_bytes,
    "coefficients.expand_symbolic": _expand_monomials,
    "symmetry_breaking.phi_root": _phi_root_roots,
    "waves.solve_w": _solve_w_result,
}


class Tracer:
    """Span and counter collector for one benchmark process.

    ``spans`` holds ``[name, start, end, parent_index, op_id]`` records
    in start order; ``counts`` holds ``<name>.calls``, ``<name>.raised``
    and the result-derived counters, and the caller may add counts read
    from the program's output files (``waves.newton.steps``).  Set
    ``op`` before each benchmark op so its spans carry the op id.
    ``clock`` gives the span times.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, func in SPANNED:
            self._patch(module_name, func, self._span_wrapper)
        for module_name, func in COUNTED:
            self._patch(module_name, func, self._count_wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _patch(self, module_name: str, func: str, make_wrapper) -> None:
        original = getattr(importlib.import_module(f"capwhitham.{module_name}"), func)
        wrapper = make_wrapper(f"{module_name}.{func}", original)
        for name, module in list(sys.modules.items()):
            if name != "capwhitham" and not name.startswith("capwhitham."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        calls_key, raised_key = name + ".calls", name + ".raised"
        hook = _RESULT_HOOKS.get(name)

        def spanned(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            counts[calls_key] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[raised_key] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return spanned

    def mark(self) -> tuple[int, Counter]:
        """Position to later summarize everything recorded after it."""
        return len(self.spans), Counter(self.counts)

    def summarize(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``mark``."""
        first, counts_before = mark
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        refine_evals = 0
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        for index in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[index]
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            if (
                name == "symmetry_breaking.phi_eval"
                and parent >= first
                and self.spans[parent][0] == "symmetry_breaking.phi_root"
            ):
                refine_evals += 1
        roots_calls = counts["symmetry_breaking.phi_root.calls"]
        w_calls = counts["waves.solve_w.calls"]
        return {
            "symmetry_breaking.phi_eval.calls": counts["symmetry_breaking.phi_eval.calls"],
            "symmetry_breaking.phi_eval.self_s": self_time["symmetry_breaking.phi_eval"],
            "symbol.double_bifurcation.calls": counts["symbol.double_bifurcation.calls"],
            "symbol.double_bifurcation.self_s": self_time["symbol.double_bifurcation"],
            "symbol.turning_point.calls": counts["symbol.turning_point.calls"],
            "symbol.turning_point.s": total["symbol.turning_point"],
            "symbol.eval_symbol.calls": counts["symbol.eval_symbol.calls"],
            "symmetry_breaking.phi_root.s": total["symmetry_breaking.phi_root"],
            "symmetry_breaking.phi_root.refine_evals": refine_evals,
            "symmetry_breaking.phi_root.yield": (
                counts["symmetry_breaking.phi_root.roots"] / roots_calls if roots_calls else 0.0
            ),
            "symmetry_breaking.phi_limits.s": total["symmetry_breaking.phi_limits"],
            "symmetry_breaking.pair_scan.s": total["symmetry_breaking.pair_scan"],
            "coefficients.multiplier.calls": counts["coefficients.multiplier.calls"],
            "coefficients.limit_ratio.calls": counts["coefficients.limit_ratio.calls"],
            "coefficients.expand_symbolic.s": total["coefficients.expand_symbolic"],
            "coefficients.expand_symbolic.monomials": counts[
                "coefficients.expand_symbolic.monomials"
            ],
            "waves.solve_wave.s": total["waves.solve_wave"],
            "waves.symmetric_solve.s": total["waves.symmetric_solve"],
            "waves.solve_w.calls": w_calls,
            "waves.solve_w.s": total["waves.solve_w"],
            "waves.solve_w.iterations": counts["waves.solve_w.iterations"],
            "waves.solve_w.newton_share": (
                counts["waves.solve_w.newton"] / w_calls if w_calls else 0.0
            ),
            "waves.solve_w.raised": counts["waves.solve_w.raised"],
            "waves.newton.steps": counts["waves.newton.steps"],
            "cli.main.calls": counts["cli.main.calls"],
            "cli.main.self_s": self_time["cli.main"],
            "emitters.write_text.calls": counts["emitters.write_text.calls"],
            "emitters.write_text.bytes": counts["emitters.write_text.bytes"],
            "emitters.write_text.s": total["emitters.write_text"],
        }
