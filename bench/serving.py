"""Serving workloads: Insights reads over a one-worker gateway cluster.

* ``gateway_read`` — the Insights-collection phase of an audit, over
  sockets.  Two keep-alive connections in a closed loop read
  ``GET /v1/<ad_id>/insights`` for one of 64 delivered ads in one of 5
  views.  Keys are drawn Zipf(1.1) over those 320 keys, 1.25x the
  256-entry response cache, so the hit ratio is a live number.  Nothing
  is delivered and the handler is cheap: routing, decode, the cache,
  the wire encoder and the client transport do the work.
* ``gateway_mixed`` — the same world, worker and key stream with writes
  beside the reads.  Reads run open-loop at 1,000/s on one connection,
  timed from each read's due time; a second connection starts a write
  flow every second (audience + 20,000 hashes, campaign, 4 ads, review,
  ``deliver_day``, 4 insights reads).  Every 2xx write flushes the
  response cache and delivery runs on the event loop, so read tail
  latency measures head-of-line blocking.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import statistics
import threading
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any
from urllib.parse import quote

import numpy as np

from repro.api.client import MarketingApiClient
from repro.api.gateway import GatewayCluster, GatewayConfig, rest_transport
from repro.api.protocol import ApiRequest, ApiResponse, HttpMethod
from repro.core.world import SimulatedWorld, WorldConfig
from repro.errors import ApiError
from repro.obs.tracer import Tracer, get_tracer, tracing

from bench.common import (
    ACCOUNT,
    GATEWAY_STAGES,
    JOB_LAYERS,
    Context,
    Outcome,
    call_kind,
    own_cpu_s,
    proc_cpu_s,
    proc_hwm_kib,
    self_maxrss_kib,
    span_dicts,
    world_layers,
)
from bench.measure import (
    ZipfKeys,
    metrics_delta,
    open_loop,
    percentile,
    samples_beyond,
    stalled_share,
)

HOST = "127.0.0.1"
SETUPS = 3
#: The gateway workloads serve one fixed world, ads and write audience;
#: ``--seed`` drives their read-key streams.  A write flow's delivery
#: runs until its last ad spends out, so with a world and audience per
#: seed, write-flow time moved by a quarter from seed to seed.
WORLD_SEED = 7
#: Reads must never be throttled: the workloads measure serving, not
#: the limiter's refusals (the shared rate plane still runs per request).
UNTHROTTLED = GatewayConfig(rate_capacity=10**9, rate_refill_per_second=10**9)
VIEWS = ("", "age,gender", "region", "dma", "hourly")
READ_ADS = 64
UPLOAD_HASHES = 20_000
#: One read in this many is compared byte for byte with a cache-busted fetch.
CHECK_EVERY = 1000
#: Reads per closed-loop batch (``job_s`` on gateway_read).
BATCH = 1000
WARMUP_S = 1.0
READ_RATE = 1000.0
#: A write flow's time varies by about a tenth from flow to flow; ten
#: flows per 10 s window keep their median steady where five did not.
FLOW_EVERY_S = 1.0
FLOW_ADS = 4


class TimedTransport:
    """Transport wrapper recording ``(kind, start, end)`` of every call."""

    def __init__(self, inner: Callable[[ApiRequest], ApiResponse], tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.calls: list[tuple[str, float, float]] = []

    def __call__(self, request: ApiRequest) -> ApiResponse:
        kind = call_kind(request.method.value, request.path)
        started = perf_counter()
        try:
            with self._tracer.span(f"bench.api.{kind}"):
                return self._inner(request)
        finally:
            self.calls.append((kind, started, perf_counter()))


@dataclass
class Served:
    """One set-up: a world, its one-worker cluster and the delivered read ads."""

    world: SimulatedWorld
    cluster: GatewayCluster
    ads: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)

    @property
    def port(self) -> int:
        return self.cluster.port

    @property
    def token(self) -> str:
        return self.world.config.access_token

    @property
    def worker(self) -> int:
        return self.cluster.worker_pids[0]

    def client(self, tracer: Tracer | None = None):
        """A fresh keep-alive connection, the transport over it (a
        :class:`TimedTransport` when given a ``tracer``) and a client."""
        connection = rest_transport(HOST, self.port)
        transport = connection if tracer is None else TimedTransport(connection, tracer)
        return connection, transport, MarketingApiClient(transport, self.token)


@dataclass(frozen=True, slots=True)
class Snapshot:
    """``GET /metrics`` and the CPU clocks at one window boundary."""

    at: float
    metrics: dict[str, Any]
    own_cpu: float
    worker_cpu: float

    @staticmethod
    def take(served: Served) -> "Snapshot":
        conn = http.client.HTTPConnection(HOST, served.port, timeout=30.0)
        try:
            conn.request("GET", "/metrics")
            metrics = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        return Snapshot(perf_counter(), metrics, own_cpu_s(), proc_cpu_s(served.worker))


def _creative(i: int) -> dict[str, Any]:
    """The ``i``-th creative: the four corners of implied race x gender, cycled.

    Creatives are fixed, not drawn from the seed: a delivery runs until
    its last ad spends out, so one unappealing random image would set
    the length of a whole write flow.
    """
    return {
        "headline": "Learn more about our services",
        "body": "Explore our guide for everyone.",
        "destination_url": "https://example.org/guide",
        "image": {
            "race_score": 0.15 if i % 2 else 0.85,
            "gender_score": 0.15 if i // 2 % 2 else 0.85,
            "age_years": 35.0,
        },
    }


def _hashes(world: SimulatedWorld, rng: np.random.Generator) -> list[str]:
    """``UPLOAD_HASHES`` seeded PII hashes of platform users."""
    column = world.universe.columns.pii_hash
    picks = rng.choice(column.size, size=min(UPLOAD_HASHES, column.size), replace=False)
    return [value.decode("ascii") for value in column[np.sort(picks)].tolist()]


def _launch(client: MarketingApiClient, hashes: list[str], n_ads: int, tag: str) -> list[str]:
    """Upload ``hashes`` as an audience and launch ``n_ads`` approved ads on it.

    An ad whose review rejection survives appeal is replaced, so a
    launch always yields exactly ``n_ads``.
    """
    audience = client.create_custom_audience(ACCOUNT, tag)
    client.upload_audience_users(audience, hashes)
    campaign = client.create_campaign(ACCOUNT, tag, "TRAFFIC")
    ads: list[str] = []
    for attempt in range(2 * n_ads + 8):
        adset = client.create_adset(
            ACCOUNT, f"{tag}/{attempt}", campaign, 200, {"custom_audience_ids": [audience]}
        )
        ad = client.create_ad(ACCOUNT, f"{tag}/{attempt}", adset, _creative(len(ads)))
        review = client.submit_for_review(ad)
        if review["review_status"] == "REJECTED":
            review = client.appeal(ad)
        if review["review_status"] == "APPROVED":
            ads.append(ad)
            if len(ads) == n_ads:
                return ads
    raise RuntimeError(f"{tag}: review kept rejecting ads")


def _serve(ctx: Context, tracer: Tracer) -> Served:
    """One full set-up: build the world, start the cluster, deliver the read ads."""
    make_config = WorldConfig.small if ctx.smoke else WorldConfig.xl
    n_ads = 8 if ctx.smoke else READ_ADS
    with tracer.span("bench.world"):
        world = SimulatedWorld(make_config(seed=WORLD_SEED), cache=False)
    cluster = GatewayCluster(
        world.universe, world.config, world.ear, workers=1, gateway=UNTHROTTLED, accounts=(ACCOUNT,)
    )
    served = Served(world, cluster)
    started = perf_counter()
    with tracer.span("bench.cluster_start"):
        cluster.start()
    served.parts["cluster.start"] = perf_counter() - started
    try:
        started = perf_counter()
        with tracer.span("bench.seed_campaign"):
            connection, _, client = served.client()
            hashes = _hashes(world, np.random.default_rng([WORLD_SEED, 0]))
            served.ads = _launch(client, hashes, n_ads, "reads")
            delivered = client.deliver_day(ACCOUNT, served.ads)["delivered_ads"]
            connection.close()
        served.parts["setup.seed_campaign"] = perf_counter() - started
        if delivered != n_ads:
            raise RuntimeError(f"set-up delivered {delivered} of {n_ads} ads")
    except BaseException:
        cluster.stop()
        raise
    return served


def _set_up(ctx: Context, out: Outcome, tracer: Tracer) -> tuple[Served, list[float]]:
    """``SETUPS`` full set-ups; the last one stays up for the window."""
    setups: list[float] = []
    parts: dict[str, list[float]] = defaultdict(list)
    reports: list[dict[str, tuple[str, float]]] = []
    served = None
    for _ in range(SETUPS):
        if served is not None:
            served.cluster.stop()
        served = None
        gc.collect()
        started = perf_counter()
        with tracer.span("bench.setup"):
            served = _serve(ctx, tracer)
        setups.append(perf_counter() - started)
        reports.append({k: (t.source, t.seconds) for k, t in served.world.build_report.items()})
        for name, seconds in served.parts.items():
            parts[name].append(seconds)
    for name, values in parts.items():
        out.set(f"{name}_s", statistics.median(values), "s")
    world_layers(out, reports, statistics.median)
    return served, setups


def _same_bytes(served: Served, key: int, nonce: str) -> bool | None:
    """Does the cached body of ``key`` equal a cache-busted fetch byte for byte?

    ``None`` when no cached copy could be observed (writes kept
    flushing the cache between fetches).
    """
    ad, view = served.ads[key // len(VIEWS)], VIEWS[key % len(VIEWS)]
    target = f"/v1/{ad}/insights" + (f"?breakdowns={quote(view)}" if view else "")
    conn = http.client.HTTPConnection(HOST, served.port, timeout=30.0)

    def get(path: str) -> tuple[int, str | None, bytes]:
        conn.request("GET", path, headers={"Authorization": f"Bearer {served.token}"})
        response = conn.getresponse()
        return response.status, response.getheader("X-Cache"), response.read()

    try:
        for _ in range(3):  # a first fetch refills an evicted key
            status, source, cached = get(target)
            if source == "hit":
                break
        else:
            return None
        busted = get(target + ("&" if view else "?") + f"nocache={nonce}")
    finally:
        conn.close()
    return status == 200 and busted[:2] == (200, "miss") and busted[2] == cached


class Reader:
    """One load connection reading keys from its own seeded Zipf stream."""

    def __init__(self, served: Served, seed: int, index: int, trace: bool) -> None:
        self.served = served
        self.index = index
        self.keys = ZipfKeys(seed, index, len(served.ads) * len(VIEWS))
        self.tracer = Tracer(enabled=trace)
        self.connection, _, self.client = served.client()
        self._pending: list[int] = []
        #: Keys of every ``CHECK_EVERY``-th read, awaiting the byte check.
        self.to_check: list[int] = []
        self.checks: list[bool | None] = []
        #: Closed loop: ``(completion time, latency, ok)`` per read.
        self.records: list[tuple[float, float, bool]] = []

    def read(self, i: int) -> bool:
        """Read the next key; ``False`` if the read failed."""
        if not self._pending:
            self._pending = self.keys.draw(4096)[::-1]
        key = self._pending.pop()
        ad, view = self.served.ads[key // len(VIEWS)], VIEWS[key % len(VIEWS)]
        if (i + 1) % CHECK_EVERY == 0:
            self.to_check.append(key)
        try:
            with self.tracer.span("bench.read"):
                self.client.call(
                    HttpMethod.GET, f"/{ad}/insights", {"breakdowns": view} if view else None
                )
        except ApiError:
            return False
        return True

    def check_pending(self, tracer: Tracer) -> None:
        """Run the byte checks queued so far (spans go to the calling
        thread's ``tracer``)."""
        while self.to_check:
            key = self.to_check.pop()
            with tracer.span("bench.check"):
                self.checks.append(
                    _same_bytes(self.served, key, f"{self.index}-{len(self.checks)}")
                )

    def warm(self) -> None:
        """Untimed reads until the caches and connection are warm."""
        until = perf_counter() + WARMUP_S
        i = 0
        while perf_counter() < until:
            self.read(i)
            i += 1
        self.to_check.clear()

    def closed_loop(self, deadline: float) -> None:
        """Read back to back until ``deadline``."""
        i = 0
        while (started := perf_counter()) < deadline:
            ok = self.read(i)
            done = perf_counter()
            self.records.append((done, done - started, ok))
            self.check_pending(self.tracer)
            i += 1


def _run_threads(targets: list[Callable[[], None]]) -> None:
    """Run ``targets`` on their own threads; re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _window(out: Outcome, before: Snapshot, after: Snapshot, mean_read_s: float) -> None:
    """Worker and client metrics of the measured window, from /metrics deltas."""
    wall = after.at - before.at
    out.set("client.busy_share", (after.own_cpu - before.own_cpu) / wall, "share")
    out.set("worker.busy_share", (after.worker_cpu - before.worker_cpu) / wall, "share")
    delta = metrics_delta(before.metrics, after.metrics)
    routed = delta.get(("gateway_stage_requests", "route"), 0.0)
    stages = {
        f"gateway.{stage}": delta.get(("gateway_stage_seconds_total", stage), 0.0) / routed
        for stage in GATEWAY_STAGES
    }
    for name, seconds in stages.items():
        out.set(f"{name}_us", seconds * 1e6, "us")
    residual = out.shares(mean_read_s, stages, tuple(stages))
    out.set("residual_share", residual, "share")
    out.set("client.residual_us", residual * mean_read_s * 1e6, "us")
    hits = delta.get(("gateway_cache", "hits"), 0.0)
    lookups = hits + delta.get(("gateway_cache", "misses"), 0.0)
    out.set("gateway.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")


def _reads(out: Outcome, latencies: list[float], checks: list[bool | None]) -> None:
    """Read latency percentiles, failures and the byte checks."""
    failed = sum(math.isinf(latency) for latency in latencies)
    out.attempted += len(latencies)
    out.failed += failed
    out.check(failed == 0, f"{failed} of {len(latencies)} reads failed")
    p50 = percentile(latencies, 50) * 1e3
    out.set("read_p50_ms", p50, "ms")
    out.set("read.p50_ms", p50, "ms")
    out.set("read_p99_ms", percentile(latencies, 99) * 1e3, "ms")
    out.set("read_n", len(latencies), "count")
    out.set("read_n_beyond_p99", samples_beyond(len(latencies), 99), "count")
    compared = [check for check in checks if check is not None]
    out.set("byte_checks", len(compared), "count")
    out.check(bool(compared), "no cached read could be compared with a cache-busted fetch")
    out.check(all(compared), f"{compared.count(False)} cached bodies differ from a cache-busted fetch")


def gateway_read(ctx: Context) -> Outcome:
    """Two closed-loop keep-alive connections reading Zipf-drawn Insights keys."""
    out = Outcome()
    tracer = get_tracer()
    with tracing(ctx.trace):
        served, setups = _set_up(ctx, out, tracer)
        try:
            readers = [Reader(served, ctx.seed, i, ctx.trace) for i in range(2)]
            try:
                _run_threads([reader.warm for reader in readers])
                before = Snapshot.take(served)
                deadline = before.at + ctx.seconds
                _run_threads([lambda r=reader: r.closed_loop(deadline) for reader in readers])
                after = Snapshot.take(served)
            finally:
                for reader in readers:
                    reader.connection.close()
            worker_hwm = proc_hwm_kib(served.worker)
        finally:
            served.cluster.stop()
        out.spans += span_dicts(tracer.drain())
    records = sorted(record for reader in readers for record in reader.records)
    _reads(
        out,
        [latency if ok else math.inf for _, latency, ok in records],
        [check for reader in readers for check in reader.checks],
    )
    ends = [before.at] + [done for done, _, _ in records[BATCH - 1 :: BATCH]]
    batches = [b - a for a, b in zip(ends, ends[1:])]
    out.finish(setups, batches, self_maxrss_kib() + worker_hwm)
    out.set("read_rps", len(records) / (after.at - before.at), "1/s")
    _window(out, before, after, statistics.fmean(lat for _, lat, ok in records if ok))
    for reader in readers:
        out.spans += span_dicts(reader.tracer.spans, job=reader.index + 1)
    return out


def _flow(client: MarketingApiClient, hashes: list[str], tag: str) -> int:
    """One write flow; returns the ``delivered_ads`` the delivery reported."""
    ads = _launch(client, hashes, FLOW_ADS, tag)
    delivered = client.deliver_day(ACCOUNT, ads)["delivered_ads"]
    for ad in ads:
        client.get_insights(ad)
    return delivered


def gateway_mixed(ctx: Context) -> Outcome:
    """Open-loop reads at 1,000/s beside a write flow every second."""
    out = Outcome()
    tracer = get_tracer()
    with tracing(ctx.trace):
        served, setups = _set_up(ctx, out, tracer)
        try:
            reader = Reader(served, ctx.seed, 0, ctx.trace)
            writer = Tracer(enabled=ctx.trace)
            connection, timed, client = served.client(writer)
            n_flows = math.ceil(ctx.seconds / FLOW_EVERY_S)
            flow_hashes = _hashes(served.world, np.random.default_rng([WORLD_SEED, 1]))
            flows: list[tuple[float, float, int]] = []
            arrivals = []

            def write() -> None:
                for k in range(n_flows):
                    sleep(max(0.0, before.at + k * FLOW_EVERY_S - perf_counter()))
                    started = perf_counter()
                    with writer.span("bench.flow"):
                        delivered = _flow(client, flow_hashes, f"flow{k}")
                    flows.append((started, perf_counter(), delivered))
                    reader.check_pending(writer)

            def read() -> None:
                arrivals.extend(open_loop(reader.read, rate=READ_RATE, duration=ctx.seconds))

            try:
                reader.warm()
                before = Snapshot.take(served)
                _run_threads([read, write])
                after = Snapshot.take(served)
                reader.check_pending(writer)
            finally:
                reader.connection.close()
                connection.close()
            worker_hwm = proc_hwm_kib(served.worker)
        finally:
            served.cluster.stop()
        out.spans += span_dicts(tracer.drain())
    _reads(out, [a.latency for a in arrivals], reader.checks)
    out.attempted += len(timed.calls)
    out.check(
        all(delivered == FLOW_ADS for _, _, delivered in flows),
        f"write flows delivered {[d for _, _, d in flows]} ads, not {FLOW_ADS} each",
    )
    durations = [end - start for start, end, _ in flows]
    out.finish(setups, durations, self_maxrss_kib() + worker_hwm)
    out.set("gen.late_p99_ms", percentile([a.sent - a.due for a in arrivals], 99) * 1e3, "ms")
    ok_reads = [a for a in arrivals if a.ok]
    _window(out, before, after, statistics.fmean(a.done - a.sent for a in ok_reads))
    by_kind: dict[str, float] = defaultdict(float)
    for kind, start, end in timed.calls:
        by_kind[f"api.{kind}"] += end - start
    flow_residual = out.shares(sum(durations), by_kind, JOB_LAYERS)
    out.set("flow.residual_share", flow_residual, "share")
    delivers = [(start, end) for kind, start, end in timed.calls if kind == "deliver"]
    out.set("api.deliver_ms", statistics.median(e - s for s, e in delivers) * 1e3, "ms")
    uploads = [
        sum(e - s for kind, s, e in timed.calls if kind == "upload" and start <= s < end)
        for start, end, _ in flows
    ]
    out.set("api.upload_ms", statistics.median(uploads) * 1e3, "ms")
    out.set("read.stalled_share", stalled_share([a.due for a in arrivals], delivers), "share")
    out.spans += span_dicts(reader.tracer.spans, job=1)
    out.spans += span_dicts(writer.spans, job=2)
    return out
