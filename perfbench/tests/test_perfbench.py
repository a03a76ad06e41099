"""Tests of the benchmark's own code (not of the program it measures)."""

import math

import pytest

import stats
import tracing
from cloudload import CHECKSUM_WORDS, open_loop_segments, request_stream
from repro.cloud.api import REQUEST_KINDS
from repro.cloud.chaos import base_payload
from workloads import (
    NONCE_CLOSED,
    NONCE_OPEN,
    WORKLOADS,
    arrival_schedule,
    campaign_seeds,
)


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


# -- seeded inputs ---------------------------------------------------------


def test_same_seed_gives_same_requests_and_schedule():
    workload = WORKLOADS["cloud-mix"]
    first = _take(request_stream(7, NONCE_OPEN), 200)
    again = _take(request_stream(7, NONCE_OPEN), 200)
    assert first == again
    assert arrival_schedule(workload.rate, 5.0, 7) == arrival_schedule(workload.rate, 5.0, 7)
    assert first != _take(request_stream(8, NONCE_OPEN), 200)
    assert arrival_schedule(workload.rate, 5.0, 7) != arrival_schedule(workload.rate, 5.0, 8)
    assert open_loop_segments(workload, 7, 10.0, 4) == open_loop_segments(workload, 7, 10.0, 4)


def test_nonces_are_unique_across_phases_and_segments():
    workload = WORKLOADS["cloud-mix"]
    nonces = [r.nonce for r in _take(request_stream(1, NONCE_CLOSED), 500)]
    for requests, _ in open_loop_segments(workload, 1, 20.0, 10):
        nonces += [r.nonce for r in requests]
    assert len(set(nonces)) == len(nonces)


def test_requests_take_the_repository_payload_shapes():
    for request in _take(request_stream(3, 0), 300):
        shape = base_payload(request.kind, 0)
        if request.kind == "checksum":
            assert CHECKSUM_WORDS[0] <= len(request.payload) <= CHECKSUM_WORDS[1]
        elif request.kind == "spin":
            assert request.payload == shape
        else:
            assert len(request.payload) == len(shape)


def test_every_segment_holds_each_kind_equally_often():
    workload = WORKLOADS["cloud-mix"]
    for requests, offsets in open_loop_segments(workload, 5, 30.0, 10):
        assert len(requests) == len(offsets) and offsets == sorted(offsets)
        assert all(0 <= offset < 3.0 for offset in offsets)
        counts = [sum(r.kind == kind for r in requests) for kind in REQUEST_KINDS]
        assert max(counts) - min(counts) <= 1


def test_schedule_is_poisson_at_the_offered_rate():
    offsets = arrival_schedule(50.0, 200.0, 11)
    assert offsets == sorted(offsets) and offsets[-1] < 200.0
    assert abs(len(offsets) / 200.0 - 50.0) < 2.5


def test_campaign_seeds_repeat_so_digests_can_be_compared():
    seeds = _take(campaign_seeds(5), 4)
    assert seeds[0] == seeds[2] and seeds[1] == seeds[3] and seeds[0] != seeds[1]
    assert seeds == _take(campaign_seeds(5), 4)


# -- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_value_leaves_ten_samples_beyond():
    values = list(range(1, 1001))
    pct, value = stats.tail(values)
    assert pct == 99.0
    assert sum(1 for v in values if v > value) == 10


def test_percentile_is_nearest_rank_and_failures_sort_last():
    assert stats.percentile([3, 1, 2, 4], 50) == 2
    assert stats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90) == 9
    assert stats.percentile([1, 2, math.inf], 90) == math.inf
    assert stats.percentile([], 50) == 0.0


# -- spans and self time ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.enter("smc")          # t=0
    clock.now = 1.0
    tracer.enter("precheck")     # 1..3
    clock.now = 3.0
    tracer.exit()
    tracer.enter("engine")       # 3..7, with a compile 4..6 inside
    clock.now = 4.0
    tracer.enter("compile")
    clock.now = 6.0
    tracer.exit()
    clock.now = 7.0
    tracer.exit(units=100)
    clock.now = 10.0
    tracer.exit()
    count, total, self_s, units = tracer.totals["smc"]
    assert (count, total, self_s) == (1, 10.0, 4.0)   # 10 - (2 + 4)
    assert tracer.totals["engine"][1:] == [4.0, 2.0, 100]
    assert tracer.totals["compile"][1:3] == [2.0, 2.0]
    assert tracer.totals["precheck"][1:3] == [2.0, 2.0]


def test_exception_still_closes_the_span():
    tracer = tracing.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("injected")

    wrapped = tracing._span(tracer, "smc", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.depth == 0 and tracer.totals["smc"][0] == 1


# -- installing and removing wrappers --------------------------------------


def leftover_wrappers():
    """Names of traced wrappers still bound anywhere in ``repro``."""
    import sys

    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, tracing.MARK):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                found.extend(
                    f"{mod_name}.{attr}.{name}"
                    for name, member in vars(value).items()
                    if hasattr(member, tracing.MARK)
                )
    return found


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from repro.crypto import hmac
    from repro.crypto.sha256 import SHA256
    from repro.faults import campaign  # from-imports audit_monitor
    from repro.monitor import enclave_exec, integrity
    from repro.sdk import native  # from-imports dispatch_svc

    originals = {
        "audit": campaign.audit_monitor,
        "svc": enclave_exec.dispatch_svc,
        "native_svc": native.dispatch_svc,
        "precheck": integrity.precheck,
        "update": vars(SHA256)["update"],
        "hmac": hmac.hmac_sha256,
    }
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        assert getattr(campaign.audit_monitor, tracing.MARK) == "audit"
        assert getattr(native.dispatch_svc, tracing.MARK) == "svc"
        assert native.dispatch_svc is enclave_exec.dispatch_svc
        assert getattr(integrity.precheck, tracing.MARK) == "precheck"
        hmac.hmac_sha256(b"k", b"x" * 100)
        assert tracer.totals["hmac"][0] == 1
        # ipad block + 100-byte message, opad block + 32-byte inner digest,
        # plus padding: every byte fed through SHA256.update is counted.
        assert tracer.totals["sha256"][0] >= 4
        assert tracer.totals["sha256"][3] >= 64 + 100 + 64 + 32
        with pytest.raises(RuntimeError):
            tracing.install(tracing.Tracer())
    finally:
        installation.uninstall()
    assert leftover_wrappers() == []
    assert campaign.audit_monitor is originals["audit"]
    assert enclave_exec.dispatch_svc is originals["svc"]
    assert native.dispatch_svc is originals["native_svc"]
    assert integrity.precheck is originals["precheck"]
    assert vars(SHA256)["update"] is originals["update"]
    assert hmac.hmac_sha256 is originals["hmac"]


def test_worker_records_round_trip_through_per_pid_files(tmp_path):
    clock = FakeClock()
    tracer = tracing.Tracer(out_dir=str(tmp_path), clock=clock)
    tracer.enter("serve")
    tracer.enter("restore")
    clock.now = 0.5
    tracer.exit()
    clock.now = 2.0
    _, start, end = tracer.exit()
    tracer.flush_request("k1", "spin", start, end)
    tracer.close()
    (record,) = tracing.read_records(str(tmp_path))
    assert record["id"] == "k1" and record["kind"] == "spin"
    assert record["totals"]["serve"] == [1, 2.0, 1.5, 0]
    assert record["samples"]["restore"] == [0.5]
    assert tracer.totals == {}  # reset after each request


# -- the metric tables -----------------------------------------------------


def test_metric_tables_match_benchmark_json():
    import json
    import pathlib

    import run

    spec = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = run.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(per_layer)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(run.SPAN_METRICS) <= {name for name, _ in per_layer}
