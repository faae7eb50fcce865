"""Self-tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import time

import pytest

import common
import spans
from loadgen import open_loop, poisson_schedule


# -- percentile helper --------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    assert common.tail_percentile(100) == pytest.approx(90.0)
    assert common.tail_percentile(200) == pytest.approx(95.0)
    assert common.tail_percentile(40) == pytest.approx(75.0)
    assert common.tail_percentile(5) == 0.0


def test_p90_needs_a_hundred_samples():
    values = list(range(1, 101))
    assert common.percentile(values, 90) == pytest.approx(90.1)
    assert sum(v > common.percentile(values, 90) for v in values) == 10
    with pytest.raises(ValueError):
        common.percentile(values[:99], 90)
    assert common.percentile(values[:40], 75) == pytest.approx(30.25)


def test_add_tail_names_the_percentile_the_sample_holds():
    result = common.Result("w", 0, False)
    result.add_tail([float(v) for v in range(100)])
    assert result.metrics["latency_p90_ms"]["samples"] == 100
    small = common.Result("w", 0, False)
    small.add_tail([float(v) for v in range(40)])
    assert "latency_p90_ms" not in small.metrics
    assert small.metrics["latency_p75_ms"]["samples"] == 40


# -- open-loop due-time accounting --------------------------------------------

def _stalling_connect(stall_s: float):
    def connect():
        def send(i):
            if i == 0:
                time.sleep(stall_s)
            return 200, i
        return send
    return connect


def test_stalled_request_delays_the_requests_queued_behind_it():
    offsets = [0.0, 0.01, 0.02, 0.03]
    samples = open_loop(offsets, _stalling_connect(0.3), connections=1)
    assert [s.payload for s in samples] == [0, 1, 2, 3]
    for s in samples[1:]:
        # Latency runs from the due time, so the stall counts against
        # every request that waited for the one connection.
        assert s.latency >= 0.25
        assert s.late >= 0.25
        assert s.end - s.start < 0.1


def test_a_free_connection_is_not_delayed_by_the_stall():
    samples = open_loop([0.0, 0.01], _stalling_connect(0.3), connections=2)
    assert samples[0].latency >= 0.3
    assert samples[1].latency < 0.1


def test_failed_sends_are_recorded_not_raised():
    def connect():
        def send(i):
            raise ConnectionResetError("gone")
        return send

    samples = open_loop([0.0, 0.0], connect, connections=1)
    assert all(s.error and "gone" in s.error for s in samples)


def test_poisson_schedule_is_seeded_sorted_and_inside_the_window():
    import numpy as np

    a = poisson_schedule(np.random.default_rng(3), 50, 20.0)
    b = poisson_schedule(np.random.default_rng(3), 50, 20.0)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0) and a[0] >= 0 and a[-1] < 20.0


# -- self time -----------------------------------------------------------------

def _span(rid, name, start, end, parent=None):
    return spans.SpanRecord(rid, name, start, end, parent)


def test_self_time_counts_overlapping_children_once():
    parent = _span(1, "p", 0.0, 10.0)
    kids = [_span(2, "a", 1.0, 4.0, 1), _span(3, "b", 3.0, 6.0, 1),
            _span(4, "c", 8.0, 12.0, 1)]  # overlaps b, and runs past the parent
    selfs = spans.self_times([parent, *kids])
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def test_layer_report_charges_a_shared_batch_to_every_request():
    r1, r2 = _span(1, "req", 0.0, 10.0), _span(2, "req", 0.0, 10.0)
    batch = _span(3, "batch", 2.0, 10.0)
    fwd = _span(4, "fwd", 2.0, 6.0, 3)
    report = spans.layer_report([r1, r2, batch, fwd], "req",
                                {"req": "svc", "batch": "batch", "fwd": "fwd"}.get,
                                extra_children={1: [batch], 2: [batch]})
    assert report["request_s"] == pytest.approx(20.0)
    assert report["layers"]["fwd"]["self_s"] == pytest.approx(8.0)
    assert report["layers"]["batch"]["self_s"] == pytest.approx(8.0)
    assert report["layers"]["svc"]["self_s"] == pytest.approx(4.0)
    assert sum(e["share"] for e in report["layers"].values()) == pytest.approx(1.0)


def test_wrapper_records_a_span_and_unwraps():
    class Thing:
        def work(self, x):
            return x + 1

    recorder = spans.Recorder()
    recorder.wrap(Thing, "work", "thing.work", attrs_of=lambda a, k: {"x": a[1]})
    with recorder.span("root", request="r0"):
        assert Thing().work(2) == 3
    recorder.unwrap_all()
    assert Thing().work(2) == 3 and len(recorder.spans) == 2
    (inner,) = recorder.named("thing.work")
    (root,) = recorder.named("root")
    assert inner.parent == root.id and inner.request == "r0" and inner.attrs == {"x": 2}


# -- ledger ------------------------------------------------------------------

def test_ledger_appends_and_never_rewrites(tmp_path):
    path = tmp_path / "ledger.jsonl"
    result = common.Result("serve_hybrid_trust", 7, False)
    result.attempted = 3
    result.add("setup_s", 1.5, "s")
    first = common.ledger_record(result, "abc")
    common.append_ledger(first, path)
    before = path.read_text()
    second = common.ledger_record(result, "abc", applicable=False)
    common.append_ledger(second, path)
    lines = path.read_text().splitlines()
    assert path.read_text().startswith(before) and len(lines) == 2
    rec1, rec2 = (json.loads(line) for line in lines)
    assert rec1["verdict"] == "pass" and rec2["verdict"] == "not applicable"
    for key in ("git_sha", "nproc", "python", "numpy", "scipy", "workload", "seed",
                "config_hash", "metrics"):
        assert key in rec1
    assert rec1["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


# -- the catalog BENCHMARK.json declares ---------------------------------------

def test_benchmark_json_matches_the_catalog():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
