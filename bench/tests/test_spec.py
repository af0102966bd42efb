"""BENCHMARK.json is well formed and agrees with the benchmark's code."""

import json
import re

from bench.cli import WORKLOADS
from bench.spec import SPEC_PATH, load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_shape():
    raw = json.loads(SPEC_PATH.read_text())
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert raw["paths"] == ["bench"]
    assert 1 <= raw["run_seconds"] <= 60
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = raw["end_to_end"] + raw["per_layer"]
    names = [m["name"] for m in raw["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)


def test_setup_time_has_the_largest_bound():
    spec = load_spec()
    setup = next(m for m in spec.end_to_end if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.end_to_end)


def test_every_workload_is_implemented():
    assert load_spec().workloads == tuple(WORKLOADS)
