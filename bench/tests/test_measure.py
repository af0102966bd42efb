"""The benchmark's measurement helpers, on synthetic inputs."""

import math

import pytest

from bench.measure import (
    ZipfKeys,
    metrics_delta,
    open_loop,
    percentile,
    samples_beyond,
    self_times,
    stalled_share,
)


def _span(span_id, parent_id, name, start, end, pid=None):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "duration": end - start,
        "pid": pid,
    }


class TestSelfTimes:
    def test_overlapping_children_are_counted_once(self):
        spans = [
            _span(1, None, "day", 0.0, 10.0),
            _span(2, 1, "chunk", 1.0, 4.0),
            _span(3, 1, "chunk", 3.0, 6.0),  # overlaps the first chunk
            _span(4, 1, "insights", 8.0, 12.0),  # runs past the parent's end
            _span(5, 4, "record", 8.0, 9.0),
        ]
        selfs = self_times(spans)
        # Children cover [1, 6] and [8, 10] of the day's [0, 10].
        assert selfs["day"] == pytest.approx(3.0)
        assert selfs["chunk"] == pytest.approx(6.0)
        assert selfs["insights"] == pytest.approx(3.0)
        assert selfs["record"] == pytest.approx(1.0)

    def test_parents_are_matched_within_a_process(self):
        spans = [
            _span(1, None, "job", 0.0, 4.0, pid=10),
            _span(2, 1, "work", 0.0, 3.0, pid=10),
            # Same ids in another process: not a child of pid 10's job.
            _span(1, None, "job", 0.0, 4.0, pid=11),
        ]
        selfs = self_times(spans)
        assert selfs["job"] == pytest.approx(1.0 + 4.0)
        assert selfs["work"] == pytest.approx(3.0)


class TestPercentile:
    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        samples = [float(i) for i in range(100)]
        with pytest.raises(ValueError, match="need 10"):
            percentile(samples, 99)
        assert samples_beyond(100, 99) == 1

    def test_nearest_rank_with_enough_samples(self):
        samples = [float(i) for i in range(1, 1001)]
        assert percentile(samples, 99) == 990.0
        assert samples_beyond(1000, 99) == 10
        assert percentile(samples, 50) == 500.0

    def test_failures_miss_every_limit(self):
        samples = [0.001] * 980 + [math.inf] * 20
        assert percentile(samples, 99) == math.inf
        assert percentile(samples, 50) == 0.001


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_charges_a_stall_to_every_read_due_inside_it():
    clock = FakeClock()
    service, stall, rate = 0.001, 0.4, 100.0

    def send(i):
        clock.now += stall if i == 10 else service
        return True

    arrivals = open_loop(send, rate=rate, duration=1.0, clock=clock, sleep=clock.sleep)
    assert len(arrivals) == 100
    stall_start = arrivals[10].sent
    stall_end = stall_start + stall
    # Reads due during the stall wait for it from their due time...
    during = [a for a in arrivals[11:] if a.due < stall_end]
    assert len(during) == pytest.approx(stall * rate - 1, abs=1)
    for arrival in during:
        assert arrival.sent >= stall_end - 1e-9
        assert arrival.latency == pytest.approx(arrival.done - arrival.due)
        assert arrival.latency >= stall_end - arrival.due - 1e-9
    assert during[0].latency == pytest.approx(stall - 1.0 / rate + service)
    # ...and once the backlog drains, reads are on time again.
    assert arrivals[-1].latency == pytest.approx(service)
    share = stalled_share([a.due for a in arrivals], [(stall_start, stall_end)])
    assert share == pytest.approx(stall, abs=1.0 / rate)


def test_open_loop_failures_count_as_infinite_latency():
    clock = FakeClock()

    def send(i):
        clock.now += 0.001
        return i != 3

    arrivals = open_loop(send, rate=10.0, duration=1.0, clock=clock, sleep=clock.sleep)
    assert math.isinf(arrivals[3].latency)
    assert sum(math.isinf(a.latency) for a in arrivals) == 1


def _snapshot(route_seconds, route_requests, hits, worker_row=0.0):
    return {
        "gauges": [
            {"name": "gateway_stage_seconds_total", "labels": {"stage": "route", "worker": "_merged"}, "value": route_seconds},
            {"name": "gateway_stage_seconds_total", "labels": {"stage": "route", "worker": "4242"}, "value": worker_row},
            {"name": "gateway_stage_requests", "labels": {"stage": "route", "worker": "_merged"}, "value": route_requests},
            {"name": "gateway_cache", "labels": {"result": "hits", "worker": "_merged"}, "value": hits},
        ],
        "counters": [],
    }


def test_metrics_delta_ignores_traffic_outside_the_window():
    # 1,000 requests (and 5 s of route time) happened before the window.
    before = _snapshot(5.0, 1000.0, 700.0, worker_row=5.0)
    after = _snapshot(5.5, 1400.0, 1000.0, worker_row=5.5)
    delta = metrics_delta(before, after)
    assert delta[("gateway_stage_requests", "route")] == 400.0
    assert delta[("gateway_stage_seconds_total", "route")] == pytest.approx(0.5)
    assert delta[("gateway_cache", "hits")] == 300.0


def test_metrics_delta_counts_series_born_inside_the_window():
    after = _snapshot(0.5, 10.0, 4.0)
    delta = metrics_delta({"gauges": [], "counters": []}, after)
    assert delta[("gateway_stage_requests", "route")] == 10.0


class TestZipfKeys:
    def test_reproducible_from_the_seed(self):
        assert ZipfKeys(7, 0, 320).draw(5000) == ZipfKeys(7, 0, 320).draw(5000)

    def test_streams_and_seeds_differ(self):
        base = ZipfKeys(7, 0, 320).draw(1000)
        assert ZipfKeys(7, 1, 320).draw(1000) != base
        assert ZipfKeys(8, 0, 320).draw(1000) != base

    def test_popularity_follows_the_rank_weights(self):
        keys = ZipfKeys(7, 0, 320, s=1.1).draw(100_000)
        counts = sorted((keys.count(k) for k in set(keys)), reverse=True)
        weights = [r ** -1.1 for r in range(1, 321)]
        top_share = weights[0] / sum(weights)
        assert counts[0] / len(keys) == pytest.approx(top_share, rel=0.05)
        assert all(0 <= k < 320 for k in keys)
