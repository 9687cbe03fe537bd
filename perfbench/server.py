"""Server process of the benchmark, driven by ``run.py`` over a pipe.

``run.py`` starts this script as a child process, so the load generator
and the server never share an interpreter lock. Requests and replies are
pickled tuples on stdin and the original stdout; anything the program
prints goes to stderr. One process serves one of:

* ``serve`` -- an :class:`~repro.serve.aio.AioFrontend` over an in-process
  :class:`~repro.serve.service.LocalizationService` (inline dispatch) or
  over ``ShardedService(shards=2, replicas=2)`` (offload dispatch);
* ``inproc_build`` / ``inproc_loop`` -- the closed-loop ``query_trace``
  caller of ``inproc-trace`` together with its service.

With tracing on, the layer wrappers are installed before any service
exists, so forked shard workers inherit them. A worker leaves through
multiprocessing's ``os._exit`` path, where ``atexit`` never runs; an
after-fork hook registers a multiprocessing finalizer in each worker that
sends the worker's span summary back over a pipe instead.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import multiprocessing  # noqa: E402
import multiprocessing.sharedctypes  # noqa: E402
import multiprocessing.util  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import procstat  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

#: Seconds to wait for each worker's span summary after shutdown.
WORKER_FLUSH_TIMEOUT_S = 10.0


class Server:
    def __init__(self) -> None:
        self.tracer = None
        self.backend = None
        self.frontend = None
        self.worker_spans = None
        self.workers = 0
        self.inproc = None

    # -- tracing -------------------------------------------------------
    def _trace(self) -> None:
        active = multiprocessing.sharedctypes.RawValue("b", 0)
        self.tracer = Tracer(active)
        layers.install(self.tracer, layers.SERVER_TARGETS)
        receive, send = multiprocessing.Pipe(duplex=False)
        self.worker_spans = receive

        def after_fork(tracer: Tracer) -> None:
            tracer.reset()
            multiprocessing.util.Finalize(
                None,
                lambda: send.send((os.getpid(), summarize(tracer.spans))),
                exitpriority=100,
            )

        multiprocessing.util.register_after_fork(self.tracer, after_fork)

    def window(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active.value = 1 if on else 0

    # -- wire servers --------------------------------------------------
    def serve(self, kind: str, trace: bool) -> dict:
        from repro.serve.aio import AioFrontend
        from repro.serve.service import LocalizationService
        from repro.serve.shard import ShardedService

        from inputs import MANAGER_SEED, WIRE_SITES

        if trace:
            self._trace()
        specs = {site: site for site in WIRE_SITES}
        if kind == "sharded-refresh":
            self.backend = ShardedService(
                specs, shards=2, replicas=2, seed=MANAGER_SEED
            )
            self.workers = 2
        else:
            self.backend = LocalizationService.from_specs(specs, seed=MANAGER_SEED)
        self.backend.warm()
        self.frontend = AioFrontend(self.backend).start()
        return {
            "address": self.frontend.address,
            "pids": [os.getpid()]
            + [child.pid for child in multiprocessing.active_children()],
        }

    def report(self) -> dict:
        health = self.backend.health() if self.backend is not None else {}
        return {"router": health.get("router")}

    # -- inproc-trace ----------------------------------------------------
    def inproc_build(self, sites, update_day: float, traces, trace: bool) -> dict:
        from repro.serve.service import LocalizationService
        from repro.sim.trace import LiveTrace

        from inputs import MANAGER_SEED

        if trace:
            self._trace()
        service = LocalizationService.from_specs(
            {site: site for site in sites}, seed=MANAGER_SEED
        )
        service.warm()
        for site in sites:
            service.update(site, update_day)
        self.backend = service
        self.inproc = [
            (site, LiveTrace(day=day, rss=rss)) for site, day, rss in traces
        ]
        site, live = self.inproc[0]
        first = service.query_trace(site, live)
        return {"cells": first.cells, "positions": first.positions}

    def inproc_loop(self, seconds: float) -> dict:
        """Closed loop, one caller: each ``query_trace`` starts when the
        previous one returned. Every answer is compared bit for bit with
        the first answer to the same trace; ``run.py`` checks those
        against its reference service."""
        service, pool = self.backend, self.inproc
        count = len(pool)
        first = [None] * count
        latencies = []
        mismatched = frames = 0
        pid = os.getpid()
        self.window(True)
        cpu0 = procstat.cpu_seconds(pid)
        start = time.perf_counter()
        deadline = start + seconds
        call = 0
        while True:
            now = time.perf_counter()
            if now >= deadline and call >= count:
                break
            index = call % count
            site, live = pool[index]
            began = time.perf_counter_ns()
            result = service.query_trace(site, live)
            latencies.append(time.perf_counter_ns() - began)
            frames += result.frame_count
            if first[index] is None:
                first[index] = (result.cells, result.positions)
            elif not (
                np.array_equal(first[index][0], result.cells)
                and first[index][1].tobytes() == result.positions.tobytes()
            ):
                mismatched += 1
            call += 1
        wall = time.perf_counter() - start
        cpu = procstat.cpu_seconds(pid) - cpu0
        self.window(False)
        return {
            "latencies_ns": np.asarray(latencies, dtype=np.int64),
            "first": first,
            "mismatched": mismatched,
            "frames": frames,
            "wall_s": wall,
            "cpu_s": cpu,
        }

    # -- shutdown ------------------------------------------------------
    def stop(self) -> dict:
        if self.frontend is not None:
            self.frontend.close()
        if self.backend is not None and hasattr(self.backend, "close"):
            self.backend.close()
        if self.tracer is None:
            return {"spans": [], "workers_flushed": 0}
        summaries = [(os.getpid(), summarize(self.tracer.spans))]
        for _ in range(self.workers):
            if not self.worker_spans.poll(WORKER_FLUSH_TIMEOUT_S):
                break
            summaries.append(self.worker_spans.recv())
        return {"spans": summaries, "workers_flushed": len(summaries) - 1}


def main() -> int:
    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    requests = sys.stdin.buffer
    server = Server()
    while True:
        try:
            op, args = pickle.load(requests)
        except EOFError:
            server.stop()
            return 0
        try:
            reply = ("ok", getattr(server, op)(*args))
        except Exception:  # noqa: BLE001 - reported to run.py, which fails the run
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, channel)
        channel.flush()
        if op == "stop":
            return 0


if __name__ == "__main__":
    sys.exit(main())
