"""The whole benchmark end to end in ``--smoke`` mode (small worlds, 2 s windows)."""

import json
import subprocess
import sys

from bench.common import child_env
from bench.spec import ROOT, load_spec

#: One layer each workload must see at work in its traced run.
EXERCISED = {
    "campaign_xl": "delivery.auction_chunk_share",
    "seed_sweep": "scheduler.busy_share",
    "gateway_read": "gateway.cache_hit_ratio",
    "gateway_mixed": "read.stalled_share",
}


def test_smoke_runs_every_workload_untraced_and_traced(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "trace_overhead_pct" in done.stdout
    spec = load_spec()
    for workload in spec.workloads:
        for mode in ("untraced", "traced"):
            result = json.loads((tmp_path / f"result-{workload}-{mode}.json").read_text())
            assert result["correct"] and result["failed"] == 0, result["problems"]
            assert result["stamp"]["cpu_count"] >= 1
        traced = json.loads((tmp_path / f"result-{workload}-traced.json").read_text())
        assert traced["values"][EXERCISED[workload]][0] > 0
        assert (tmp_path / f"trace-{workload}.json").exists()
