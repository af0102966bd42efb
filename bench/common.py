"""What every workload shares: its context, its outcome and process stats."""

from __future__ import annotations

import os
import resource
import statistics
from multiprocessing import resource_tracker
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.tracer import Span

#: Ad account every workload provisions and drives.
ACCOUNT = "20190001"

#: Top-level layers of a unit of work; their shares plus
#: ``residual_share`` add up to one.
JOB_LAYERS = ("world", "api.create", "api.upload", "api.deliver", "api.collect", "analysis.regress")

#: Self-time spans of one delivery day (nested inside ``api.deliver``).
DELIVERY_SPANS = ("targeting", "pacing", "auction_chunk", "engagement", "insights")

#: Gateway request stages (``gateway_stage_*`` at ``GET /metrics``).
GATEWAY_STAGES = ("route", "decode", "cache", "handler", "encode")


@dataclass(frozen=True, slots=True)
class Context:
    """How one workload run was asked to run."""

    seed: int
    seconds: float
    trace: bool
    out: Path
    #: Small worlds and short windows: exercises every code path and
    #: check, never used for numbers.
    smoke: bool = False


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    values: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def set(self, name: str, value: float, unit: str) -> None:
        """Record one metric value."""
        self.values[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed output check unless ``ok``."""
        if not ok:
            self.problems.append(message)

    def finish(self, setups: list[float], jobs: list[float], peak_rss_kib: float) -> None:
        """Record the end-to-end metrics every workload shares."""
        self.set("setup_s", statistics.median(setups), "s")
        self.set("peak_rss_mib", peak_rss_kib / 1024.0, "MiB")
        self.set("job_s", statistics.median(jobs), "s")
        self.set("jobs", len(jobs), "count")
        self.set("error_share", self.failed / max(self.attempted, 1), "failed/attempted")

    def shares(self, total: float, parts: dict[str, float], names: tuple[str, ...]) -> float:
        """Record ``<name>_share`` = part / total for every name; returns the
        unattributed share (one minus their sum)."""
        attributed = 0.0
        for name in names:
            part = parts.get(name, 0.0)
            attributed += part
            self.set(f"{name}_share", part / total if total else 0.0, "share")
        return 1.0 - attributed / total if total else 0.0


def world_layers(
    out: Outcome,
    reports: list[dict[str, tuple[str, float]]],
    combine: Callable[[list[float]], float],
) -> None:
    """World-build stage seconds ``combine``-d over builds, and cold stages.

    ``reports`` are ``build_report``s as ``{stage: (source, seconds)}``.
    """
    stages = {"registry": ("registry.fl", "registry.nc"), "universe": ("universe",), "ear": ("ear",)}
    for layer, names in stages.items():
        out.set(
            f"world.{layer}_s",
            combine([sum(report[name][1] for name in names) for report in reports]),
            "s",
        )
    cold = sum(source == "cold" for report in reports for source, _ in report.values())
    out.set("cache.cold_stages", cold, "count")


def call_kind(method: str, path: str) -> str:
    """Which API layer a Marketing API call belongs to."""
    if method == "GET":
        return "collect"
    if path.endswith("/deliver"):
        return "deliver"
    if path.endswith("/users"):
        return "upload"
    return "create"


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import ``repro``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def span_dicts(spans: Iterable[Span], **labels: Any) -> list[dict[str, Any]]:
    """Finished spans as journal-style dicts, stamped with ``labels``."""
    return [{**span.as_dict(), **labels} for span in spans]


def reap_resource_tracker() -> None:
    """Stop and wait for multiprocessing's resource tracker, if one started.

    Shared memory (the gateway cluster's planes) starts the tracker as a
    helper process; it would exit once this process does, but a run
    must not leave any process it started behind.
    """
    resource_tracker._resource_tracker._stop()


def self_maxrss_kib() -> float:
    """Peak resident set of this process (KiB)."""
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def children_maxrss_kib() -> float:
    """Peak resident set of the largest reaped child process (KiB)."""
    return float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def proc_hwm_kib(pid: int) -> float:
    """``VmHWM`` (peak resident set, KiB) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    # Field 2 (comm) may hold spaces; fields after its closing paren
    # start at state (3), so utime/stime (14/15) are 11/12 past it.
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_s() -> float:
    """User + system CPU seconds of this process (all threads)."""
    times = os.times()
    return times.user + times.system


def children_cpu_s() -> float:
    """User + system CPU seconds of reaped child processes."""
    times = os.times()
    return times.children_user + times.children_system
