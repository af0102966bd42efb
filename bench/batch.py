"""Batch workloads: a paired campaign in-process, and a seed sweep over a pool.

* ``campaign_xl`` — paper Campaign 1 (100 stock images x 2 reversed
  audiences = 200 ads, $2 each, 24 h) through ``PairedCampaignRunner``
  on the million-user ``xl`` world, then the Table 4a regressions.
  Delivery does nearly all the work, over a seen/eligibility bitset
  (200 ads x 1M users) far larger than the CPU caches.
* ``seed_sweep`` — ``run_seed_sweep(campaign="campaign1", scale="paper",
  jobs=2)`` over 8 seeds, each sweep from a fresh, empty artifact cache.
  World construction and the process pool do most of the work; the
  delivery bitset (200 ads x 33k users) fits in cache, so a delivery
  change tuned for large working sets should show on ``campaign_xl``
  and stay flat here.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.core.campaign_runner import PairedCampaignRunner
from repro.core.experiments import build_audiences, stock_specs
from repro.core.regression import fit_identity_regressions
from repro.core.scheduler import run_seed_sweep
from repro.core.world import SimulatedWorld, WorldConfig
from repro.obs.journal import read_journal
from repro.obs.tracer import get_tracer, tracing

from bench.common import (
    ACCOUNT,
    DELIVERY_SPANS,
    JOB_LAYERS,
    Context,
    Outcome,
    call_kind,
    child_env,
    children_cpu_s,
    children_maxrss_kib,
    own_cpu_s,
    self_maxrss_kib,
    span_dicts,
    world_layers,
)
from bench.measure import self_times

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Campaign 1: 200 ads at $2 each can spend at most this much.
MAX_SPEND = 400.0
SWEEP_SEEDS = 8
SWEEP_JOBS = 2
#: Sweeps per run at least, each over its own seeds: sweep time varies
#: with the seeds (EAR training converges faster on some), and a second
#: sweep averages that input noise down.
MIN_SWEEPS = 2


def _check_identity(out: Outcome, where: str, *, spend, giveups, black, black_p) -> None:
    """The output checks every Campaign-1 run must pass."""
    out.check(spend <= MAX_SPEND + 1e-6, f"{where}: spend ${spend:.2f} exceeds ${MAX_SPEND:.0f}")
    out.check(giveups == 0, f"{where}: {giveups} API requests gave up")
    out.check(
        black > 0 and black_p < 0.001,
        f"{where}: Table 4a Black coefficient {black:+.3f} (p={black_p:.2g}) "
        "is not positive at p < 0.001",
    )


def _unit_layers(out: Outcome, spans: list[dict[str, Any]], total: float) -> None:
    """Layer ledger of one unit of work from the program's own spans.

    ``total`` is the unit's end-to-end time (summed over pool jobs for
    a sweep).  The API layers are the runner's ``campaign.*`` phases
    (client calls plus the runner's own bookkeeping); reads and uploads
    are the server's ``api.request`` spans.
    """
    durations: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    uploads = 0.0
    reads: list[float] = []
    chunks = slots = impressions = 0
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        durations[name] += span["duration"]
        if name == "delivery.auction_chunk":
            chunks += 1
        elif name == "api.request":
            kind = call_kind(*attrs["endpoint"].split(" ", 1))
            calls[kind] += 1
            if kind == "upload":
                uploads += span["duration"]
            elif kind == "collect":
                reads.append(span["duration"])
        elif name == "delivery.day":
            slots += attrs.get("slots", 0)
            impressions += attrs.get("impressions", 0)
    parts = {
        "world": durations["world.build"],
        "api.create": durations["campaign.create"],
        "api.upload": uploads,
        "api.deliver": durations["campaign.deliver"],
        "api.collect": durations["campaign.collect"],
        "analysis.regress": durations["bench.regress"],
    }
    out.set("residual_share", out.shares(total, parts, JOB_LAYERS), "share")
    for name, seconds in parts.items():
        out.set(f"{name}_s", seconds, "s")
    out.set("api.create_calls", calls["create"], "count")
    out.set("api.collect_calls", calls["collect"], "count")
    out.set("read.p50_ms", statistics.median(reads) * 1e3 if reads else 0.0, "ms")
    selfs = self_times(spans)
    delivery = {f"delivery.{name}": selfs.get(f"delivery.{name}", 0.0) for name in DELIVERY_SPANS}
    delivery["delivery.day_residual"] = selfs.get("delivery.day", 0.0)
    out.shares(total, delivery, tuple(delivery))
    for name, seconds in delivery.items():
        out.set(name + ("_s" if name.endswith("residual") else "_self_s"), seconds, "s")
    out.set("delivery.chunks", chunks, "count")
    out.set("delivery.slots", slots, "count")
    out.set("delivery.win_ratio", impressions / slots if slots else 0.0, "ratio")


def campaign_xl(ctx: Context) -> Outcome:
    """Paper Campaign 1 on the xl world, back to back, one caller."""
    make_config = WorldConfig.small if ctx.smoke else WorldConfig.xl
    out = Outcome()
    tracer = get_tracer()
    setups: list[float] = []
    reports: list[dict[str, tuple[str, float]]] = []
    jobs: list[float] = []
    first: list[dict[str, Any]] = []
    with tracing(ctx.trace):
        for _ in range(SETUPS):
            world = audiences = None
            gc.collect()
            started = perf_counter()
            with tracer.span("bench.setup"):
                with tracer.span("bench.world"):
                    world = SimulatedWorld(make_config(seed=ctx.seed), cache=False)
                with tracer.span("bench.audiences"):
                    audiences = build_audiences(world, ACCOUNT)
            setups.append(perf_counter() - started)
            reports.append({k: (t.source, t.seconds) for k, t in world.build_report.items()})
        specs = stock_specs(world)
        client = world.client()
        runner = PairedCampaignRunner(client, ACCOUNT, audiences, daily_budget_cents=200)
        out.spans += span_dicts(tracer.drain())
        cpu, start = own_cpu_s(), perf_counter()
        while not jobs or perf_counter() - start < ctx.seconds:
            started = perf_counter()
            with tracer.span("bench.campaign"):
                paired, summary = runner.run(specs, f"campaign1-{len(jobs)}")
                with tracer.span("bench.regress"):
                    table = fit_identity_regressions(paired, top_age_threshold=65)
            jobs.append(perf_counter() - started)
            spans = span_dicts(tracer.drain())
            out.spans += spans
            first = first or spans
            where = f"campaign {len(jobs)}"
            out.check(
                len(paired) + summary.rejected_ads >= len(specs),
                f"{where}: {len(specs) - len(paired)} images unpaired but only "
                f"{summary.rejected_ads} ads rejected in review",
            )
            _check_identity(
                out,
                where,
                spend=summary.spend,
                giveups=summary.api_stats["giveups"],
                black=table.pct_black.coefficient("Black"),
                black_p=table.pct_black.p_value("Black"),
            )
        wall, cpu = perf_counter() - start, own_cpu_s() - cpu
    totals = client.metrics.totals()
    out.attempted, out.failed = totals.requests, totals.errors
    out.finish(setups, jobs, self_maxrss_kib())
    out.set("client.busy_share", cpu / wall, "share")
    world_layers(out, reports, statistics.median)
    if ctx.trace:
        _unit_layers(out, first, jobs[0])
    return out


def _cold_import_s() -> float:
    """A fresh interpreter importing the sweep entry point."""
    started = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.core.scheduler"], env=child_env(), check=True
    )
    return perf_counter() - started


def seed_sweep(ctx: Context) -> Outcome:
    """Eight-seed Campaign-1 sweeps over a two-process pool, cold cache each."""
    scale, n_seeds = ("small", 2) if ctx.smoke else ("paper", SWEEP_SEEDS)
    out = Outcome()
    tracer = get_tracer()
    # Each sweep builds its own worlds inside the pool, so what a sweep
    # pays before its pool starts is a cold start of the entry point.
    setups = [_cold_import_s() for _ in range(SETUPS)]
    jobs: list[float] = []
    first: tuple[list[dict[str, Any]], dict[str, Any]] | None = None
    ctx.out.mkdir(parents=True, exist_ok=True)
    with tracing(ctx.trace):
        cpu, kids, start = own_cpu_s(), children_cpu_s(), perf_counter()
        while len(jobs) < MIN_SWEEPS or perf_counter() - start < ctx.seconds:
            seeds = [ctx.seed * 1000 + len(jobs) * n_seeds + i for i in range(n_seeds)]
            with tempfile.TemporaryDirectory(dir=ctx.out) as scratch:
                trace_out = Path(scratch) / "trace" if ctx.trace else None
                started = perf_counter()
                with tracer.span("bench.sweep", {"seeds": n_seeds}):
                    rows = run_seed_sweep(
                        seeds,
                        campaign="campaign1",
                        scale=scale,
                        jobs=SWEEP_JOBS,
                        cache=Path(scratch) / "cache",
                        trace_out=trace_out,
                    )
                jobs.append(perf_counter() - started)
                # Drained before the next sweep forks its pool, so no
                # worker inherits (and re-reports) a finished span.
                out.spans += span_dicts(tracer.drain())
                if trace_out is not None and first is None:
                    journal = read_journal(trace_out / "journal.jsonl")
                    first = (
                        [s for s in journal if s.get("kind") == "span"],
                        json.loads((trace_out / "manifest.json").read_text()),
                    )
                    out.spans += first[0]
            for row in rows:
                out.attempted += int(row["api_requests"])
                out.failed += int(row["api_giveups"])
                _check_identity(
                    out,
                    f"sweep {len(jobs)} seed {row['seed']}",
                    spend=row["spend"],
                    giveups=row["api_giveups"],
                    black=row["black"],
                    black_p=row["black_p"],
                )
        wall = perf_counter() - start
        cpu, kids = own_cpu_s() - cpu, children_cpu_s() - kids
    out.finish(setups, jobs, self_maxrss_kib() + children_maxrss_kib())
    out.set("client.busy_share", cpu / wall, "share")
    out.set("worker.busy_share", kids / (wall * SWEEP_JOBS), "share")
    if first is not None:
        spans, manifest = first
        job_spans = [s for s in spans if s.get("job", -1) >= 0]
        job_times = [s["duration"] for s in job_spans if s["name"] == "scheduler.job"]
        total = sum(job_times)
        reports = [
            {k: (v["source"], v["seconds"]) for k, v in stages.items()}
            for stages in manifest["stages"].values()
        ]
        world_layers(out, reports, sum)
        _unit_layers(out, job_spans, total)
        out.set("scheduler.job_s", statistics.median(job_times), "s")
        out.set("scheduler.busy_share", total / (jobs[0] * SWEEP_JOBS), "share")
    return out
