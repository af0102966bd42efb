"""Command line: one workload in-process, or the whole benchmark in subprocesses.

``python -m bench --workload NAME`` runs one workload in this process
and prints ``workload metric value unit`` lines, then one JSON line
with ``correct``/``attempted``/``failed`` and the metrics
``BENCHMARK.json`` names (end-to-end, or per-layer with ``--trace 1``).

Without ``--workload`` (or with several, or ``--sets``) every workload
runs in its own fresh subprocess; ``--trace 1`` adds a traced run of
each and the tracing overhead, ``--sets K`` repeats the list K times in
alternating order and fails on any end-to-end metric whose set medians
differ by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs.export import write_chrome_trace

from bench.batch import campaign_xl, seed_sweep
from bench.common import Context, child_env, reap_resource_tracker
from bench.serving import gateway_mixed, gateway_read
from bench.spec import ROOT, Spec, load_spec

WORKLOADS = {
    "campaign_xl": campaign_xl,
    "seed_sweep": seed_sweep,
    "gateway_read": gateway_read,
    "gateway_mixed": gateway_mixed,
}
SMOKE_SECONDS = 2.0
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # The ceiling stops git at the checkout: a copy that is not a
    # repository must not report the commit of a repository around it.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment(seed: int) -> dict[str, Any]:
    """The stamp every result carries."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {name: os.environ[name] for name in BLAS_VARS if name in os.environ},
        "seed": seed,
        "commit": _commit(),
    }


def _result_path(out: Path, workload: str, trace: bool) -> Path:
    return out / f"result-{workload}-{'traced' if trace else 'untraced'}.json"


def run_workload(name: str, ctx: Context, spec: Spec) -> int:
    """Run one workload here and print its lines and the result JSON."""
    try:
        outcome = WORKLOADS[name](ctx)
    finally:
        reap_resource_tracker()
    ctx.out.mkdir(parents=True, exist_ok=True)
    if ctx.trace:
        write_chrome_trace(outcome.spans, ctx.out / f"trace-{name}.json")
    stamp = environment(ctx.seed)
    print(f"# {name} {json.dumps(stamp, sort_keys=True)}")
    for metric, (value, unit) in sorted(outcome.values.items()):
        print(f"{name} {metric} {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"{name} CHECK FAILED: {problem}")
    reported = {}
    for metric in spec.metrics(ctx.trace):
        # A layer this workload does not exercise reports zero.
        value, unit = outcome.values.get(metric.name, (0.0, metric.unit))
        if metric.bound is not None and metric.name not in outcome.values:
            raise KeyError(f"{name} did not measure end-to-end metric {metric.name}")
        if unit != metric.unit:
            raise ValueError(f"{name}: {metric.name} measured in {unit}, declared {metric.unit}")
        reported[metric.name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    correct = not outcome.problems and outcome.failed == 0
    _result_path(ctx.out, name, ctx.trace).write_text(
        json.dumps(
            {
                "workload": name,
                "trace": ctx.trace,
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "problems": outcome.problems,
                "values": outcome.values,
                "stamp": stamp,
            },
            indent=1,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": reported,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def _subprocess(name: str, args: argparse.Namespace, trace: bool) -> dict[str, Any] | None:
    """Run one workload in a fresh interpreter; its result, or None if it crashed."""
    out = Path(args.out)
    result_path = _result_path(out, name, trace)
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)), "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if "CHECK FAILED" in line:
            print(line)
    if not result_path.exists():
        print(f"{name}: run failed (exit {done.returncode})\n{done.stderr[-2000:]}")
        return None
    return json.loads(result_path.read_text())


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def harness(args: argparse.Namespace, spec: Spec) -> int:
    """Every requested workload in its own subprocess, ``--sets`` times."""
    names = args.workload or list(spec.workloads)
    stamp = environment(args.seed)
    print("# " + json.dumps(stamp, sort_keys=True), flush=True)
    runs: dict[tuple[str, bool], list[dict[str, Any]]] = defaultdict(list)
    ok = True
    for k in range(args.sets):
        for name in names if k % 2 == 0 else names[::-1]:
            for trace in (False, True) if args.trace else (False,):
                result = _subprocess(name, args, trace)
                ok = ok and result is not None and result["correct"]
                if result is not None:
                    runs[(name, trace)].append(result)
    rows = [("workload", "metric", "value", "unit")]
    for name in names:
        for result in runs[(name, False)][:1]:
            for metric, (value, unit) in sorted(result["values"].items()):
                rows.append((name, metric, f"{value:.6g}", unit))
    print(_table(rows))
    if args.trace:
        print(_layer_report(names, runs, spec))
    if args.sets > 1:
        report, within = _repeatability(names, runs, spec)
        print(report)
        ok = ok and within
    return 0 if ok else 1


def _layer_report(names: list[str], runs, spec: Spec) -> str:
    """Per-layer metrics of the traced runs, with the tracing overhead."""
    rows = [("workload", "metric", "value", "unit")]
    for name in names:
        traced, untraced = runs[(name, True)][:1], runs[(name, False)][:1]
        if not traced:
            continue
        values = traced[0]["values"]
        for metric in spec.per_layer:
            value, unit = values.get(metric.name, (0.0, metric.unit))
            rows.append((name, metric.name, f"{value:.6g}", unit))
        if untraced:
            overhead = values["job_s"][0] / untraced[0]["values"]["job_s"][0] - 1.0
            rows.append((name, "trace_overhead_pct", f"{overhead * 100:.3g}", "%"))
    return _table(rows)


def _repeatability(names: list[str], runs, spec: Spec) -> tuple[str, bool]:
    """Set medians, their spread and the bound of every end-to-end metric."""
    rows = [("workload", "metric", "set medians", "spread", "bound", "verdict")]
    within = True
    for name in names:
        results = runs[(name, False)]
        for metric in spec.end_to_end:
            values = [result["values"][metric.name][0] for result in results]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median if median else math.inf
            verdict = "ok" if spread <= metric.bound else "OUTSIDE BOUND"
            within = within and verdict == "ok"
            rows.append(
                (
                    name,
                    metric.name,
                    " ".join(f"{v:.6g}" for v in values),
                    f"{spread:.3f}",
                    f"{metric.bound:.2f}",
                    verdict,
                )
            )
    return _table(rows), within


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="small worlds, 2 s windows; never for numbers")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"), help="traces and result files")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec.run_seconds)
    if args.workload and len(args.workload) == 1 and args.sets == 1:
        ctx = Context(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            out=Path(args.out),
            smoke=args.smoke,
        )
        return run_workload(args.workload[0], ctx, spec)
    return harness(args, spec)
