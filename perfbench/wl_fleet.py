"""``fleet_fno_json``: routed JSON ``/predict`` through ``repro fleet up``.

The benchmark starts ``repro fleet up`` with 2 replicas and the CLI
defaults (1 serve worker, trust off, float64 registry) and sends JSON
``fno×2`` requests through the gateway in an open loop: Poisson
arrivals at ``RATE`` over 2 connections, a distinct window and
``X-Route-Key`` per request, latency timed from each request's due
time.  The wire codec and the gateway do most of the work here; PDE,
trust and training do none.

At 2 req/s about two in three requests overlap another on the 2-core
host, which puts the median among the overlapped ones, where a small
change in service time flips requests between the modes: over ten
seeds the median spread 18% of its value.  At ``RATE`` = 1 req/s the
median is a non-overlapped request, so it tracks the service time.

The arrival trace and the route keys are fixed (``TRACE_SEED``), so
every run queues and places its requests the same way; ``--seed``
picks the windows.  With the trace drawn per seed, clumped arrivals on
one seed and spread-out ones on another moved the median by more than
the host noise.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlsplit

import numpy as np

import common
import layers
from common import Result
from loadgen import open_loop, poisson_schedule

NAME = "fleet_fno_json"
RATE = 1.0
REPLICAS = 2
CONNECTIONS = 2
CYCLES = 2
TRACE_SEED = 2024
SETUPS = 3
WARM = REPLICAS + 1  # warm-up requests per set-up: one per replica, one routed
ROUTE_PAIRS = 8     # traced: interleaved routed/direct pairs
HTTPD_REQUESTS = 8  # traced: in-process make_server round trips
EXPECTED_SHAPE = (common.MODEL.n_in + CYCLES * common.MODEL.n_out, 2,
                  common.GRID, common.GRID)


def encode(window: np.ndarray) -> bytes:
    return json.dumps({"model": "bench", "window": window.tolist(),
                       "mode": "fno", "cycles": CYCLES}).encode()


class Fleet:
    """One ``repro fleet up`` child process and its workdir."""

    def __init__(self, ckpt, workdir):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "up", "--model", f"bench={ckpt}",
             "--replicas", str(REPLICAS), "--port", "0", "--workdir", str(workdir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            start_new_session=True,
        )
        self.url = None
        self.log: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            match = re.search(r"repro-fleet gateway on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 90.0) -> None:
        if not self._ready.wait(timeout) or self.url is None:
            raise RuntimeError("fleet did not come up:\n" + "".join(self.log[-20:]))
        parts = urlsplit(self.url)
        self.host, self.port = parts.hostname, parts.port

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get_json(self, url: str) -> dict:
        parts = urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            conn.request("GET", parts.path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def get_text(self, path: str) -> str:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def journal(self) -> list[dict]:
        path = self.workdir / "requests.jsonl"
        if not path.exists():
            return []
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def pids(self) -> list[int]:
        status = self.get_json(self.url + "/fleet/status")
        return [self.proc.pid] + [r["pid"] for r in status["coordinator"].values()
                                  if r["pid"] is not None]

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM drains the fleet; anything left in its group is killed."""
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._reader.join(timeout=10)
        _wait_group_gone(self.proc.pid)


def _wait_group_gone(pgid: int, timeout: float = 30.0) -> None:
    """Wait until no process of group ``pgid`` is left, replicas included."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RuntimeError(f"processes of fleet group {pgid} still running after {timeout} s")


def post(conn, body: bytes, headers: dict) -> tuple[int, bytes]:
    conn.request("POST", "/predict", body=body,
                 headers={"Content-Type": "application/json", **headers})
    resp = conn.getresponse()
    return resp.status, resp.read()


def warm(fleet: Fleet, bodies) -> int:
    """Trace plans on every replica (direct requests), then route one
    request through the gateway; returns the journaled request count."""
    endpoints = sorted(fleet.get_json(fleet.url + "/fleet/status")["endpoints"].values())
    if len(endpoints) != REPLICAS:
        raise RuntimeError(f"fleet is up with {len(endpoints)} of {REPLICAS} replicas")
    targets = [(http.client.HTTPConnection(urlsplit(u).hostname, urlsplit(u).port,
                                           timeout=120), {}) for u in endpoints]
    targets.append((fleet.connect(), {"X-Route-Key": "warm"}))
    for (conn, headers), body in zip(targets, bodies):
        try:
            status, _ = post(conn, body, headers)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
    return 1


def run(seed: int, seconds: float, recorder, result: Result) -> None:
    ckpt = common.serving_checkpoint()
    n = int(round(RATE * seconds))
    extra = SETUPS * WARM + 2 * ROUTE_PAIRS + HTTPD_REQUESTS + 1
    windows = common.WindowSet(seed, n + extra)
    t = time.perf_counter()
    bodies = [encode(windows[i]) for i in range(n + SETUPS * WARM)]
    result.phase("client encode", t)
    warm_bodies = bodies[n:]

    t = time.perf_counter()
    setups, fleet = [], None
    for k in range(SETUPS):
        start = time.perf_counter()
        fleet = Fleet(ckpt, common.OUT_DIR / f"fleet-{k}")
        try:
            fleet.wait_ready()
            sent = warm(fleet, warm_bodies[k * WARM:(k + 1) * WARM])
        except BaseException:
            fleet.stop()
            raise
        setups.append(time.perf_counter() - start)
        if k < SETUPS - 1:
            fleet.stop(graceful=False)  # only the last set-up serves the load
            shutil.rmtree(fleet.workdir, ignore_errors=True)
    result.add("setup_s", common.median(setups), "s", samples=SETUPS)
    result.phase("fleet set-ups", t)

    try:
        t = time.perf_counter()
        samples = measure(fleet, bodies[:n], recorder,
                          poisson_schedule(np.random.default_rng(TRACE_SEED), n, seconds))
        result.phase("open loop", t)
        result.add("peak_rss_mb", sum(common.peak_rss_mb(pid) for pid in fleet.pids()), "MB")
        if recorder is not None:
            t = time.perf_counter()
            traced_fleet(fleet, windows, n + SETUPS * WARM, recorder, result)
            result.phase("traced probes", t)
    finally:
        fleet.stop()
    sent += n + (ROUTE_PAIRS if recorder is not None else 0)
    result.attempted = n
    t = time.perf_counter()
    check(samples, windows, ckpt, fleet, sent, result)
    result.phase("output check", t)

    ok = [s for s in samples if s.error is None and s.status == 200]
    latencies = [s.latency * 1e3 for s in ok]
    result.add("latency_p50_ms", common.median(latencies), "ms", samples=len(ok))
    span = max(s.end for s in samples) - min(s.due for s in samples)
    result.add("throughput_per_s", len(ok) / span, "1/s", samples=len(ok))
    result.add_tail(latencies)
    result.add("repeated_input_share", windows.repeated_share, "frac")
    result.add("bench.gen_late_ms", float(np.mean([s.late for s in samples])) * 1e3, "ms")
    if recorder is not None:
        served = {}
        for e in fleet.journal():
            if e["event"] == "responded" and e["id"].startswith("bench-"):
                served[e["replica"]] = served.get(e["replica"], 0) + 1
        result.add("fleet.replica_share_max", max(served.values()) / sum(served.values()),
                   "frac")
    shutil.rmtree(fleet.workdir, ignore_errors=True)


def measure(fleet: Fleet, bodies, recorder, offsets):
    def connect():
        conn = fleet.connect()

        def send(i):
            headers = {"X-Route-Key": f"trace-{i}", "X-Request-Id": f"bench-{i}"}
            if recorder is None:
                return post(conn, bodies[i], headers)
            with recorder.span("fleet.request", request=f"bench-{i}"):
                return post(conn, bodies[i], headers)

        return send

    return open_loop(offsets, connect, CONNECTIONS)


def check(samples, windows, ckpt, fleet: Fleet, submitted: int, result: Result) -> None:
    """200, finite ``(15, 2, 64, 64)`` velocity equal to an in-process
    reference (tolerance 0: JSON round-trips float64 exactly and the
    replicas run batch-invariant kernels), and an exactly-once journal."""
    from repro.fleet import RequestJournal
    from repro.serve import ModelRegistry
    from repro.serve.service import run_batch_inference

    registry = ModelRegistry()
    registry.register("bench", ckpt)
    entry = registry.get("bench")
    decode_ms = []
    for s in samples:
        if s.error is not None or s.status != 200:
            result.fail(f"request {s.index}: status {s.status} {s.error or ''}".strip())
            continue
        start = time.perf_counter()
        try:
            velocity = np.asarray(json.loads(s.payload)["velocity"], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            result.fail(f"request {s.index}: undecodable response ({exc})")
            continue
        decode_ms.append((time.perf_counter() - start) * 1e3)
        if velocity.shape != EXPECTED_SHAPE or not np.all(np.isfinite(velocity)):
            result.fail(f"request {s.index}: velocity shape {velocity.shape} or non-finite")
            continue
        ref = run_batch_inference(
            entry.model, entry.config, entry.normalizer, windows[s.index][None],
            mode="fno", cycles=CYCLES, reynolds=[common.REYNOLDS],
            sample_interval=common.INTERVAL, solver_kind="fd", deterministic=True,
        )[0]["velocity"]
        if not np.array_equal(velocity, ref):
            diff = float(np.max(np.abs(velocity - ref)))
            result.fail(f"request {s.index}: differs from in-process reference by {diff:.3e}")
        s.payload = None
    verdict = RequestJournal.load(fleet.workdir / "requests.jsonl").verify()
    if not verdict["exactly_once"] or verdict["submitted"] != submitted:
        result.fail(f"gateway journal: {verdict['submitted']} submitted, "
                    f"lost {len(verdict['lost'])}, duplicated {len(verdict['duplicated'])}, "
                    f"failed {verdict['failed']}")
    result.notes.append(f"gateway journal exactly-once: {verdict['exactly_once']} "
                        f"({verdict['submitted']} requests)")
    result.add("bench.client_decode_ms", common.median(decode_ms) if decode_ms else 0.0, "ms")


# -- traced run --------------------------------------------------------------

def _prom_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def traced_fleet(fleet: Fleet, windows, first: int, recorder, result: Result) -> None:
    # Routed minus direct-to-replica latency on interleaved pairs, with
    # the order inside each pair alternating.
    status = fleet.get_json(fleet.url + "/fleet/status")
    replicas = sorted(status["endpoints"].items())
    bodies = [encode(windows[first + j]) for j in range(2 * ROUTE_PAIRS)]
    routed, direct = [], []
    for j in range(ROUTE_PAIRS):
        _, url = replicas[j % len(replicas)]
        parts = urlsplit(url)
        legs = [("routed", fleet.connect(), {"X-Route-Key": f"pair-{j}",
                                             "X-Request-Id": f"pair-{j}"}),
                ("direct", http.client.HTTPConnection(parts.hostname, parts.port,
                                                      timeout=120), {})]
        for k, (kind, conn, headers) in enumerate(legs if j % 2 == 0 else legs[::-1]):
            with recorder.span(f"fleet.{kind}", request=f"pair-{j}") as sp:
                code, _ = post(conn, bodies[2 * j + k], headers)
            conn.close()
            if code != 200:
                result.fail(f"route-overhead {kind} request answered {code}")
            (routed if kind == "routed" else direct).append(sp.duration * 1e3)
    result.add("fleet.route_overhead_ms", common.median(routed) - common.median(direct), "ms")
    result.add("fleet.retries",
               _prom_value(fleet.get_text("/metrics"), "repro_fleet_gateway_failovers_total"),
               "count")
    health = fleet.get_json(fleet.url + "/fleet/status")["replicas"]
    result.add("fleet.ejections", sum(r["ejections"] for r in health.values()), "count")

    stats = [fleet.get_json(url + "/stats") for _, url in replicas]
    waits = [(s["queue_wait_s"]["p50"], s["queue_wait_s"]["count"]) for s in stats]
    execs = [(s["batch_exec_s"]["p50"], s["batch_exec_s"]["count"]) for s in stats]
    weighted = lambda pairs: sum(v * c for v, c in pairs) / max(sum(c for _, c in pairs), 1)
    result.add("serve.queue_wait_ms", weighted(waits) * 1e3, "ms")
    result.add("serve.batch_exec_ms", weighted(execs) * 1e3, "ms")
    hist: dict[int, int] = {}
    for s in stats:
        for size, count in s["batch_histogram"].items():
            hist[int(size)] = hist.get(int(size), 0) + count
    result.add("serve.batch_size_mean",
               sum(k * v for k, v in hist.items()) / max(sum(hist.values()), 1), "count")
    result.add("serve.rejected", sum(s["requests"]["rejected"] for s in stats), "count")
    result.add("serve.errors", sum(s["requests"]["errors"] for s in stats), "count")
    hits = sum(s["registry"]["hits"] for s in stats)
    misses = sum(s["registry"]["misses"] for s in stats)
    result.add("serve.registry.hit_frac", hits / max(hits + misses, 1), "frac")

    predict_ms = traced_httpd(windows, first + 2 * ROUTE_PAIRS, recorder, result)
    routed_ms = common.median(routed)
    share = (result.metrics["fleet.route_overhead_ms"]["value"]
             + result.metrics["serve.httpd.self_ms"]["value"] + predict_ms) / routed_ms
    result.notes.append(f"fleet + serve.httpd + InferenceService.predict cover "
                        f"{100 * share:.1f}% of the {routed_ms:.1f} ms routed latency "
                        f"(target >= 90%; httpd and predict measured in-process)")


def traced_httpd(windows, first: int, recorder, result: Result) -> float:
    """HTTP round trips to an in-process ``make_server`` with the replica's
    settings; returns the median wrapped ``InferenceService.predict`` time."""
    from repro.serve import BatchPolicy, InferenceService, ModelRegistry, make_server

    import spans

    recorder.wrap(InferenceService, "predict", "serve.service.predict", adopt=True)
    recorder.wrap(ModelRegistry, "get", "serve.registry.get")
    hooks = layers.wrap_forward(recorder)
    registry = ModelRegistry()
    registry.register("bench", common.serving_checkpoint())
    service = InferenceService(registry, policy=BatchPolicy(max_batch=4, max_queue=64),
                               n_workers=1, default_mode="fno", trust=None).start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    req_bytes, resp_bytes = [], []
    try:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        for j in range(HTTPD_REQUESTS + 1):
            body = encode(windows[first + j])
            with recorder.span("serve.httpd", request=f"httpd-{j}", warm=j == 0) as sp:
                recorder.owner = sp
                try:
                    code, data = post(conn, body, {})
                finally:
                    recorder.owner = None
            if code != 200:
                result.fail(f"in-process httpd request answered {code}")
            req_bytes.append(len(body))
            resp_bytes.append(len(data))
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(timeout=10)
        recorder.unwrap_all()

    measured = [s for s in recorder.named("serve.httpd") if not s.attrs["warm"]]
    predicts = {s.parent: s for s in recorder.named("serve.service.predict")}
    self_ms = [(s.duration - predicts[s.id].duration) * 1e3 for s in measured]
    predict_ms = common.median([predicts[s.id].duration * 1e3 for s in measured])
    result.add("serve.httpd.request_bytes", common.median(req_bytes[1:]), "B")
    result.add("serve.httpd.response_bytes", common.median(resp_bytes[1:]), "B")
    result.add("serve.httpd.self_ms", common.median(self_ms), "ms")
    gets = recorder.named("serve.registry.get")
    result.add("serve.registry.load_ms", max(s.duration for s in gets) * 1e3, "ms")
    forwards = recorder.named("core.rollout.forward")
    forward_ms = common.median([s.duration * 1e3 for s in forwards])
    result.add("core.rollout.forward_ms", forward_ms, "ms")
    result.add("core.rollout.forward_calls", len(forwards), "count")
    layers.compile_metrics(result, hooks["model"], forward_ms)
    result.add("obs.trace_overhead_frac", len(recorder.spans) * spans.span_cost_s()
               / sum(s.duration for s in recorder.named("fleet.request")), "frac")
    report = spans.layer_report(recorder.spans, "serve.httpd", {
        "serve.httpd": "serve.httpd", "serve.service.predict": "serve.service",
        "serve.registry.get": "serve.registry", "core.rollout.forward": "core.rollout",
    }.get)
    spans.print_layer_report(report, "in-process make_server round trips")
    return predict_ms
