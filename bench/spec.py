"""The benchmark contract: ``BENCHMARK.json`` at the repository root.

Workload names, the run length and every metric's unit, direction and
regression bound live there and nowhere else; the workloads produce
values, this module says which of them are reported and how.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclass(frozen=True, slots=True)
class Metric:
    """One reported metric; ``bound`` is ``None`` for per-layer metrics."""

    name: str
    unit: str
    better: str
    bound: float | None = None


@dataclass(frozen=True, slots=True)
class Spec:
    """The parsed benchmark contract."""

    workloads: tuple[str, ...]
    run_seconds: int
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def metrics(self, trace: bool) -> tuple[Metric, ...]:
        """The metrics a run reports: per-layer when traced, else end-to-end."""
        return self.per_layer if trace else self.end_to_end


def load_spec(path: Path = SPEC_PATH) -> Spec:
    """Read and parse ``BENCHMARK.json``."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    return Spec(
        workloads=tuple(w["name"] for w in raw["workloads"]),
        run_seconds=int(raw["run_seconds"]),
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )
