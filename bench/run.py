"""Benchmark of the capwhitham command line, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload scan|locate|waves --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Each run is one process that drives ``capwhitham.cli.main(argv)``
in-process on seeded inputs, writes into a scratch ``--out`` directory
under ``.bench_out/`` and checks every written file.  It repeats passes
(see ``workloads.py``) until ``--seconds`` have elapsed, and always
completes at least one.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json; with
``--trace 1`` the run spends the first half of its time untraced and the
second half traced, reports the ``per_layer`` metrics and writes the
spans to ``.bench_out/trace-<workload>-<seed>.json``.

Every time reported is calibrated to a nominal host speed with a
reference job timed throughout the run (see ``hostspeed.py``).

``--self-check`` runs two small ops against their true and against
corrupted expected values, and exits 0 only if the corrupted ones fail.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread.  With one per core, OpenBLAS workers spin on the
# second core of a 2-core host, and the run measures the scheduler.
# Set before numpy loads, here and in the setup probes, which inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import HostClock  # noqa: E402
from workloads import EXPECTED, WORKLOADS, Op, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh processes timed from spawn to ready for setup_s, one between
# passes spread over the run; their median is reported.
SETUP_PROBES = 7

# op_tail_ms is this percentile of the op latencies of a run.  A fixed
# percentile lands on the same request kind however many passes a run
# holds, while "the highest with ten samples beyond it" moved from one
# kind to another as the pass count changed.
TAIL_PERCENTILE = 90


@dataclass
class PassStats:
    """Time and outcomes of one pass; wall and CPU cover the CLI calls only.

    ``ops`` holds each op's span on the ``time.perf_counter`` scale and
    its wall and CPU seconds as measured, net of host-speed sampling.
    :meth:`calibrate` fills in the times at the nominal host speed (see
    ``hostspeed``); ``raw_wall_s`` is the wall time as measured.
    """

    ops: list[tuple[float, float, float, float]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    refused: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def calibrate(self, clock: HostClock) -> None:
        for start, end, wall, cpu in self.ops:
            factor = clock.factor(start, end)
            self.wall_s += factor * wall
            self.cpu_s += factor * cpu
            self.raw_wall_s += wall
            self.latencies_ms.append(1e3 * factor * wall)


class Runner:
    """Runs ops of one workload through the CLI and checks their files."""

    def __init__(self, cli, workload: str, workdir: Path, expected: dict = EXPECTED):
        self.cli = cli
        self.workload = WORKLOADS[workload]
        self.workdir = workdir
        self.expected = expected
        self.tracer = None
        self.op_count = 0
        self.clock = HostClock()

    def _call(self, argv: list[str], out: Path) -> tuple[int, str, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # An escaped exception is a failed op, not a failed run.
                traceback.print_exc()
                code = -1
        return code, stdout.getvalue(), stderr.getvalue()

    def run_op(self, op: Op) -> tuple[tuple[float, float, float, float], Outcome]:
        """Run one op; return its span, wall and CPU seconds, and checked outcome."""
        out = self.workdir / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if self.tracer is not None:
            self.tracer.op = self.op_count
        self.op_count += 1
        results = []
        wall = cpu = 0.0
        self.clock.sample()
        start = time.perf_counter()
        for argv in op.calls:
            w0, c0 = self.clock.now(), self.clock.cpu_now()
            results.append(self._call(argv, out))
            cpu += self.clock.cpu_now() - c0
            wall += self.clock.now() - w0
        end = time.perf_counter()
        self.clock.sample()
        outcome = self.workload.check(op, results, out, self.expected)
        if self.tracer is not None:
            self.tracer.counts["waves.newton.steps"] += outcome.newton_steps
        return (start, end, wall, cpu), outcome

    def run_pass(self, ops: list[Op]) -> PassStats:
        """Run a pass; its times are filled in by :meth:`PassStats.calibrate`."""
        stats = PassStats()
        for op in ops:
            timed, outcome = self.run_op(op)
            stats.ops.append(timed)
            stats.attempted += op.units
            stats.ok += outcome.ok
            stats.refused += outcome.refused
            stats.failed += outcome.failed
            stats.reasons += outcome.reasons
        return stats


def tail(samples: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile, interpolated between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawn until a fresh process has imported and generated inputs.

    Import time is file access and page faults more than computation,
    and scaling each probe by the reference jobs run around it made the
    spread of ``setup_s`` larger.  But the host's slow and fast spells
    moved the median of raw probe times by 22% between two sets of
    runs, so ``end_to_end`` scales their median by the run's mean host
    speed instead, which left 4% between the same two sets.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait() != 0 or ready.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit {child.returncode}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


def run_passes(runner: Runner, rng: random.Random, deadline: float,
               on_pass=None, between=None) -> list[PassStats]:
    """Run passes until ``deadline``, and at least one.

    A pass starts only if half a typical pass still fits, so a run
    overshoots its time by half a pass at most.  ``between(start, deadline)``
    runs after each pass and returns the seconds it took, by which the
    deadline moves.
    """
    first = time.perf_counter()
    passes: list[PassStats] = []
    durations: list[float] = []
    while not passes or time.perf_counter() + statistics.median(durations) / 2.0 < deadline:
        start = time.perf_counter()
        ops = runner.workload.make_pass(rng)
        mark = runner.tracer.mark() if runner.tracer is not None else None
        passes.append(runner.run_pass(ops))
        if on_pass is not None:
            on_pass(mark)
        durations.append(time.perf_counter() - start)
        if between is not None:
            deadline += between(first, deadline)
    return passes


def end_to_end(passes: list[PassStats], setup: list[float], speed: float) -> tuple[dict, str]:
    """End-to-end metrics of a run, from calibrated pass times.

    Pass times are averaged over passes, and ``op_p50_ms`` is the mean
    of the per-pass median op latencies.  ``setup`` holds the probe
    times as measured; their median is scaled by the run's mean host
    ``speed``.
    """
    latencies = [ms for p in passes for ms in p.latencies_ms]
    attempted = sum(p.attempted for p in passes)
    ok = sum(p.ok for p in passes)
    metrics = {
        "setup_s": statistics.median(setup) * speed,
        "wall_s": statistics.mean(p.wall_s for p in passes),
        "cpu_s": statistics.mean(p.cpu_s for p in passes),
        "ops_per_s": ok / sum(p.wall_s for p in passes),
        "op_p50_ms": statistics.mean(statistics.median(p.latencies_ms) for p in passes),
        "op_tail_ms": tail(latencies),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(ms > metrics["op_tail_ms"] for ms in latencies)
    note = (
        f"op_tail_ms is p{TAIL_PERCENTILE} of {len(latencies)} op latencies, {beyond} beyond it; "
        f"setup_s is the median of {len(setup)} probes"
    )
    return metrics, note


def per_layer(runner: Runner, rng: random.Random, seconds: float, workload: str,
              seed: int, env: dict) -> tuple[list[PassStats], dict]:
    """Half the time untraced, half traced; per-layer medians over traced passes.

    Span times are calibrated by their pass's host-speed factor.
    """
    from tracing import Tracer

    start = time.perf_counter()
    untraced = run_passes(runner, rng, start + seconds / 2.0)
    tracer = Tracer(runner.clock.now)
    layers: list[dict] = []
    runner.tracer = tracer
    tracer.install()
    try:
        traced = run_passes(
            runner, rng, start + seconds, lambda mark: layers.append(tracer.summarize(mark))
        )
    finally:
        tracer.uninstall()
        runner.tracer = None
    calibrate(runner, untraced + traced)
    for layer, stats in zip(layers, traced):
        factor = stats.wall_s / stats.raw_wall_s
        for name in layer:
            if name.endswith(("_s", ".s")):
                layer[name] *= factor
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    untraced_wall = statistics.mean(p.wall_s for p in untraced)
    traced_wall = statistics.mean(p.wall_s for p in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "env": env,
                "span_fields": ["name", "start", "end", "parent", "op"],
                "passes": layers,
                "spans": tracer.spans,
            },
            fh,
        )
    return untraced + traced, metrics


def calibrate(runner: Runner, passes: list[PassStats]) -> None:
    """Stop sampling the host speed and calibrate the passes' times."""
    runner.clock.stop()
    for stats in passes:
        stats.calibrate(runner.clock)


def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def benchmark(args) -> int:
    import capwhitham.cli as cli

    setup: list[float] = []

    def probe_setup(start: float, deadline: float) -> float:
        """Run the setup probes due by now, spread evenly over the run.

        The host's speed drifts over tens of seconds, so probes made in
        one burst would all see one speed.
        """
        begin = time.perf_counter()
        share = min(1.0, (begin - start) / (deadline - start)) if deadline > start else 1.0
        while len(setup) < SETUP_PROBES * share:
            setup.append(setup_probe(args.workload, args.seed))
        return time.perf_counter() - begin

    env = environment()
    rng = random.Random(f"{args.workload}-{args.seed}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    runner = Runner(cli, args.workload, workdir)
    runner.clock.start()
    try:
        runner.run_op(runner.workload.warmup())
        if args.trace:
            passes, metrics = per_layer(
                runner, rng, args.seconds, args.workload, args.seed, env
            )
            note = f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass"
        else:
            passes = run_passes(
                runner, rng, time.perf_counter() + args.seconds, between=probe_setup
            )
            while len(setup) < SETUP_PROBES:
                setup.append(setup_probe(args.workload, args.seed))
            calibrate(runner, passes)
            metrics, note = end_to_end(passes, setup, runner.clock.speed())
    finally:
        runner.clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    ok = sum(p.ok for p in passes)
    refused = sum(p.refused for p in passes)
    reasons = [r for p in passes for r in p.reasons]
    for reason in reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    report = {}
    for metric in declared(args.trace):
        report[metric["name"]] = {"value": metrics[metric["name"]], "unit": metric["unit"]}
    print("env " + json.dumps(env))
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} ops "
        f"({ok} ok, {refused} refused, {failed} failed); {note}"
    )
    print("pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("pass raw wall_s: " + " ".join(f"{p.raw_wall_s:.3f}" for p in passes))
    for name, entry in report.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}
    ))
    return 0


def self_check() -> int:
    """Show that the output checks can fail: corrupt one expected value each."""
    import capwhitham.cli as cli

    corrupted = copy.deepcopy(EXPECTED)
    corrupted["T0_2_5"] += 1e-6
    verdict_2_5 = next(
        v for v in corrupted["scan_verdicts"] if (v["k1"], v["k2"]) == (2, 5)
    )
    verdict_2_5["status"] = "undecided"
    scan_op = WORKLOADS["scan"].warmup()
    locate_op = WORKLOADS["locate"].warmup()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="self-check-", dir=OUT))
    try:
        true_stats = Runner(cli, "scan", workdir).run_pass([scan_op])
        bad_stats = Runner(cli, "scan", workdir, corrupted).run_pass([scan_op])
        true_locate = Runner(cli, "locate", workdir).run_pass([locate_op])
        bad_locate = Runner(cli, "locate", workdir, corrupted).run_pass([locate_op])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    works = True
    for name, good, bad in (("scan", true_stats, bad_stats), ("locate", true_locate, bad_locate)):
        good_ratio, bad_ratio = good.ok / good.attempted, bad.ok / bad.attempted
        gate = good.failed == 0 and bad.failed > 0 and bad_ratio < good_ratio
        works = works and gate
        print(
            f"{name}: true values ok_ratio {good_ratio:.3f} failed {good.failed}; "
            f"corrupted values ok_ratio {bad_ratio:.3f} failed {bad.failed} "
            f"({'; '.join(bad.reasons)}) -> {'gate works' if gate else 'GATE BROKEN'}"
        )
    return 0 if works else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "capwhitham" / "__init__.py").is_file():
        print(f"error: no capwhitham package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A user's default config file must not change what is measured.
    os.environ.pop("CAPWHITHAM_CONFIG", None)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        import capwhitham.cli  # noqa: F401

        WORKLOADS[args.workload].make_pass(random.Random(f"{args.workload}-{args.seed}"))
        print("ready", flush=True)
        return 0
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
