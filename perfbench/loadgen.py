"""Load generators: an open loop on a schedule and a closed loop of clients.

The open loop sends request ``i`` at its due time whether or not earlier
requests have finished, over a fixed number of connections.  Latency is
timed from the due time, not from the moment a connection was free, so
a stalled request raises the latency of every request queued behind it
(no coordinated omission); how late each send started is kept too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Sample:
    index: int
    due: float    # scheduled send time (open loop) or call start (closed loop)
    start: float  # when the send actually started
    end: float
    status: int = 0
    payload: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def late(self) -> float:
        return self.start - self.due


def poisson_schedule(rng: np.random.Generator, count: int, span_s: float) -> np.ndarray:
    """``count`` Poisson arrival offsets in ``[0, span_s)``.

    Arrivals of a Poisson process conditioned on ``count`` events in the
    window are sorted uniform draws; fixing the count keeps the sample
    size, and so the percentile estimates, the same on every seed.
    """
    return np.sort(rng.uniform(0.0, span_s, size=count))


def open_loop(offsets, connect, connections: int) -> list[Sample]:
    """Send request ``i`` at ``t0 + offsets[i]`` over ``connections`` workers.

    ``connect()`` returns ``send(i) -> (status, payload)`` bound to one
    connection; a raised exception is recorded as that request's error.
    """
    offsets = list(offsets)
    clock = time.perf_counter
    t0 = clock() + 0.05  # lets every connection's thread start first
    lock = threading.Lock()
    cursor = [0]
    samples: list[Sample] = []

    def worker() -> None:
        send = connect()
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(offsets):
                return
            due = t0 + offsets[i]
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            start = clock()
            try:
                status, payload = send(i)
                error = None
            except Exception as exc:  # a failed request is a measured outcome
                status, payload, error = 0, None, f"{type(exc).__name__}: {exc}"
                send = connect()
            sample = Sample(i, due, start, clock(), status, payload, error)
            with lock:
                samples.append(sample)

    _run_threads(worker, connections)
    return sorted(samples, key=lambda s: s.index)


def closed_loop(call, n_items: int, clients: int, seconds: float,
                keep=None) -> tuple[list[Sample], float]:
    """``clients`` threads call ``call(i)`` back to back for ``seconds``.

    Each client sends its next request only after the previous one
    returned.  ``keep(response)``, applied after the call is timed,
    reduces a response to what the caller stores.  Returns the samples
    and the elapsed wall time until the last call returned.
    """
    clock = time.perf_counter
    t0 = clock()
    deadline = t0 + seconds
    lock = threading.Lock()
    cursor = [0]
    samples: list[Sample] = []

    def worker() -> None:
        while clock() < deadline:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n_items:
                return
            start = clock()
            try:
                payload, error = call(i), None
            except Exception as exc:  # a failed request is a measured outcome
                payload, error = None, f"{type(exc).__name__}: {exc}"
            end = clock()
            if keep is not None and error is None:
                payload = keep(payload)
            sample = Sample(i, start, start, end, 200 if error is None else 0,
                            payload, error)
            with lock:
                samples.append(sample)

    _run_threads(worker, clients)
    return sorted(samples, key=lambda s: s.index), clock() - t0


def _run_threads(target, count: int) -> None:
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
