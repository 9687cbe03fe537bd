"""The three workloads: inputs, load, answer checks and end-to-end metrics.

A workload builds its inputs and reference answers from the seed, then
launches ``server.py`` processes one after another. Each launch is timed
to its first correct answer. The last ``measured_launches`` of them each
get a window of ``seconds / measured_launches``, and the run reports the
median of every metric over those windows. Every answer is checked.

With tracing on, :func:`run` alternates untraced and traced windows,
``TRACE_PAIRS`` of each, on fresh servers, sharing ``seconds`` equally;
the per-layer metrics come from the traced ones, and the tracing
overhead is the median over the traced windows minus the median over
the untraced ones.

Why each workload exists, and which layer metric should move which
end-to-end metric on which workload, is in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
import layers
import procstat
from child import ServerProcess
from inputs import MANAGER_SEED, TRACE_SITES, WIRE_SITES
from spans import Tracer, merge, summarize

#: Servers launched one after another per untraced run; ``setup_s`` is the
#: median of their set-up times.
LAUNCHES = 5
#: Latency percentiles are taken over consecutive slices of a window with
#: at least this many requests each (so a slice's p99 has 15 beyond it);
#: the run reports the median over all slices of all its windows.
SLICE_REQUESTS = 1500
#: Open-loop traffic before an aio-single window, unmeasured (answers are
#: still checked), so lazily built matchers exist before timing starts.
WARMUP_S = 1.0
#: Schedule key of the warm-up traffic (probes use small keys from 1).
WARMUP_KEY = 10**6
#: Latency objective of the sustained-rate search, the p99 SLO of the
#: repository's load-generator records.
SLO_MS = 50.0
#: A window whose generator sent its p99 request later than this after
#: the planned time is flagged: its latencies partly measure the generator.
GEN_LATE_LIMIT_MS = 10.0
#: Head start between building the schedule and its first planned send.
LEAD_S = 0.05

# aio-single
AIO_RATE = 1500.0
AIO_DAY = 0.0
AIO_POOL = 2048
SEARCH_START = 1500.0
SEARCH_GROWTH = 1.5
SEARCH_MAX = 20000.0
SEARCH_BISECT = 2
PROBE_S = 1.0

# inproc-trace
TRACE_DAY = 30.0
TRACES_PER_SITE = 24

# sharded-refresh
SHARD_RATE = 300.0
SHARD_POOL = 256
#: One update per second keeps reads blocked well under half the time, so
#: query_p50_ms measures unblocked reads and query_p99_ms blocked ones.
UPDATE_INTERVAL_S = 1.0
UPDATE_DAY_STEP = 5.0

#: Untraced and traced windows per traced run (``seconds`` is shared by
#: all of them); overhead figures are differences of medians over them.
TRACE_PAIRS = 3

#: Bounded end-to-end metric names and units, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("server_cpu_us_per_frame", "us"),
    ("median_error_m", "m"),
    ("peak_rss_mb", "MB"),
)
#: Latency is reported by every run but not bounded: on a shared two-vCPU
#: guest, hypervisor steal moves it by several times between runs of the
#: same code (see NOTES.md).
LATENCY = (
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
)
REPORTED = END_TO_END + LATENCY

Answer = Tuple[int, str, str, str]


@dataclass
class Window:
    """Raw outcome of one measurement window."""

    latencies_s: np.ndarray
    frames: int
    wall_s: float
    cpu_by_pid: Dict[int, float]
    steal: float
    attempted: int
    failed: int
    mismatched: int
    errors_m: np.ndarray
    generator: Optional["OpenLoop"] = None
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    flags: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    metrics: Dict[str, float]
    extra: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    mismatched: int
    flags: Dict[str, Any]
    per_layer: Optional[Dict[str, float]] = None
    windows: List[Dict[str, float]] = field(default_factory=list)
    #: Per-slice values of the latency metrics (see SLICE_REQUESTS).
    slices: Dict[str, List[float]] = field(default_factory=dict)
    #: Traced windows only: span summaries of every traced process, and
    #: the process measurements :func:`layers.per_layer_metrics` needs.
    summaries: List[Dict[str, Dict[str, float]]] = field(default_factory=list)
    measured: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def percentile_ms(values_s: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values_s, dtype=float), q) * 1e3)


def slice_percentiles_ms(values_s: np.ndarray, q: float) -> List[float]:
    """``q``-th percentile of each consecutive slice of ``values_s``."""
    count = max(1, len(values_s) // SLICE_REQUESTS)
    parts = np.array_split(np.asarray(values_s), count)
    return [percentile_ms(part, q) for part in parts]


def errors_m(positions, truth) -> np.ndarray:
    deltas = np.asarray(positions, dtype=float) - np.asarray(truth, dtype=float)
    return np.hypot(deltas[:, 0], deltas[:, 1])


def answer_key(cell: int, x: float, y: float, score: float) -> Answer:
    """Bit-exact identity of one single-frame answer."""
    return int(cell), float(x).hex(), float(y).hex(), float(score).hex()


def reference_answer(service, site: str, rss: np.ndarray, day: float) -> Answer:
    result = service.query(site, rss, day)
    cell = int(result.cell)
    return answer_key(cell, result.position.x, result.position.y, result.scores[cell])


def remote_key(answer) -> Answer:
    return answer_key(answer.cell, answer.position[0], answer.position[1], answer.score)


def key_position(key: Answer) -> Tuple[float, float]:
    return float.fromhex(key[1]), float.fromhex(key[2])


def reference_service(sites: Sequence[str], **kwargs):
    """An in-process service built from the same specs as the server's."""
    from repro.serve.service import LocalizationService

    service = LocalizationService.from_specs(
        {site: site for site in sites}, seed=MANAGER_SEED, **kwargs
    )
    service.warm()
    return service


class OpenLoop:
    """Open-loop sender on the running asyncio loop.

    Every request is timed from its planned send time, so a stall in the
    server, or in this generator, shows as latency of every request it
    delays. How late the generator sent each request is recorded too.
    """

    def __init__(self, offsets: np.ndarray) -> None:
        self.offsets = offsets
        count = offsets.size
        self.late_s = np.zeros(count)
        self.latency_s = np.full(count, np.nan)
        self.answers: List[Any] = [None] * count
        self.errors: List[Optional[str]] = [None] * count
        self.cpu_s = 0.0

    async def run(self, send: Callable[[int], Any], start: float) -> None:
        loop = asyncio.get_running_loop()
        tasks = []

        async def one(index: int, due: float) -> None:
            try:
                self.answers[index] = await send(index)
            except Exception as error:  # noqa: BLE001 - counted as failed
                self.errors[index] = repr(error)
            self.latency_s[index] = loop.time() - due

        cpu0 = time.process_time()
        for index, offset in enumerate(self.offsets):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_s[index] = max(0.0, loop.time() - due)
            tasks.append(loop.create_task(one(index, due)))
        await asyncio.gather(*tasks)
        self.cpu_s = time.process_time() - cpu0

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.errors)

    @property
    def answered(self) -> int:
        return sum(answer is not None for answer in self.answers)

    def late_p99_ms(self) -> float:
        return percentile_ms(self.late_s, 99)


@contextlib.contextmanager
def collector_paused():
    """Pause this process's cyclic garbage collector for one window.

    Collection pauses of 10-30 ms in the generator delayed whole bursts of
    sends and were the largest source of run-to-run p99 spread on
    aio-single; the generator's lateness would then be reported as the
    server's latency. Reference counting still frees everything acyclic.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Meter:
    """Server CPU per process and host steal between two points in time."""

    def __init__(self, server: ServerProcess) -> None:
        self.server = server
        self.cpu = server.cpu_by_pid()
        self.ticks = procstat.host_ticks()
        self.began = time.perf_counter()

    def read(self) -> Tuple[Dict[int, float], float, float]:
        """(CPU seconds per pid, steal share, wall seconds) since creation."""
        cpu = self.server.cpu_by_pid()
        steal = procstat.steal_share(self.ticks, procstat.host_ticks())
        wall = time.perf_counter() - self.began
        return {pid: cpu[pid] - self.cpu[pid] for pid in self.cpu}, steal, wall


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One traffic mix. Subclasses build inputs in ``__init__``."""

    #: True when the load crosses the wire (the generator is this process).
    wire = True
    #: Launches, counted from the last, that each get a measurement window.
    measured_launches = LAUNCHES

    def launch(self, traced: bool) -> ServerProcess:
        """Start a server and check its first answer; close it on failure."""
        server = ServerProcess()
        try:
            self._start(server, traced)
        except BaseException:
            server.close()
            raise
        return server

    def _start(self, server: ServerProcess, traced: bool) -> None:
        raise NotImplementedError

    def drive(
        self, server: ServerProcess, seconds: float, search: bool, part: int
    ) -> Window:
        """Measure one window of ``seconds``; ``search`` asks for the
        sustained-rate search, ``part`` numbers the window in its run."""
        raise NotImplementedError

    def _serve(self, server: ServerProcess, kind: str, traced: bool, first) -> None:
        """Launch a wire server and require ``first(client)`` to be true."""
        from repro.serve.aio import AsyncServiceClient

        info = server.call("serve", kind, traced)
        server.pids, server.address = info["pids"], info["address"]

        async def check() -> bool:
            async with AsyncServiceClient(server.address) as client:
                return await first(client)

        if not asyncio.run(check()):
            raise AssertionError(f"{kind}: first answer differs from the reference")


class AioSingle(Workload):
    """Single-frame queries over the aio NDJSON front-end, open loop."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pools = [
            inputs.frame_pool(seed, site, AIO_DAY, AIO_POOL) for site in WIRE_SITES
        ]
        reference = reference_service(WIRE_SITES)
        self.expected = [
            [reference_answer(reference, pool.site, row, AIO_DAY) for row in pool.rss]
            for pool in self.pools
        ]

    def _plan(self, rate: float, seconds: float, key: int = 0):
        return inputs.open_loop_plan(
            self.seed, rate, seconds, len(WIRE_SITES), AIO_POOL, key=key
        )

    def _start(self, server: ServerProcess, traced: bool) -> None:
        async def first(client) -> bool:
            answer = await client.query(WIRE_SITES[0], self.pools[0].rss[0], AIO_DAY)
            return remote_key(answer) == self.expected[0][0]

        self._serve(server, "aio-single", traced, first)

    def _sender(self, client, plan):
        def send(index: int):
            site = int(plan["sites"][index])
            frame = self.pools[site].rss[plan["picks"][index]]
            return client.query(WIRE_SITES[site], frame, AIO_DAY)

        return send

    def _check(self, run: OpenLoop, plan) -> int:
        mismatched = 0
        for index, answer in enumerate(run.answers):
            if answer is not None:
                site, pick = int(plan["sites"][index]), int(plan["picks"][index])
                mismatched += remote_key(answer) != self.expected[site][pick]
        return mismatched

    async def _send_all(self, client, plan) -> OpenLoop:
        run = OpenLoop(plan["offsets"])
        with collector_paused():
            start = asyncio.get_running_loop().time() + LEAD_S
            await run.run(self._sender(client, plan), start)
        return run

    async def _probe(self, client, rate: float, key: int) -> Tuple[bool, int, float]:
        plan = self._plan(rate, PROBE_S, key)
        run = await self._send_all(client, plan)
        latency = run.latency_s
        tenth = max(1, latency.size // 10)
        # A growing backlog: the last tenth of the probe waits longer than
        # the first tenth by more than a tenth of the SLO.
        growth_ms = (np.median(latency[-tenth:]) - np.median(latency[:tenth])) * 1e3
        ok = (
            run.failed == 0
            and percentile_ms(latency, 99) <= SLO_MS
            and growth_ms <= SLO_MS / 10
        )
        return ok, self._check(run, plan), run.late_p99_ms()

    async def _search(self, client) -> Tuple[float, int, float]:
        """Highest Poisson rate that meets the SLO with no failures and no
        growing backlog: grow by SEARCH_GROWTH until a probe fails, then
        bisect. Returns the rate, the mismatched answers of all probes, and
        the generator's lateness on the lowest failing probe (a failure the
        generator may have caused, when that lateness is large)."""
        passed, failing, mismatched, late, key = 0.0, None, 0, 0.0, 1
        rate = SEARCH_START
        while failing is None and rate <= SEARCH_MAX:
            ok, bad, probe_late = await self._probe(client, rate, key)
            key, mismatched = key + 1, mismatched + bad
            if ok:
                passed, rate = rate, rate * SEARCH_GROWTH
            else:
                failing, late = rate, probe_late
        for _ in range(SEARCH_BISECT if failing is not None else 0):
            mid = (passed + failing) / 2
            ok, bad, probe_late = await self._probe(client, mid, key)
            key, mismatched = key + 1, mismatched + bad
            if ok:
                passed = mid
            else:
                failing, late = mid, probe_late
        return passed, mismatched, late

    def drive(
        self, server: ServerProcess, seconds: float, search: bool, part: int
    ) -> Window:
        from repro.serve.aio import AsyncServiceClient

        warmup = self._plan(AIO_RATE, WARMUP_S, WARMUP_KEY)
        plan = self._plan(AIO_RATE, seconds)
        run = OpenLoop(plan["offsets"])

        async def session():
            async with AsyncServiceClient(server.address) as client:
                warm = await self._send_all(client, warmup)
                server.window(True)
                with collector_paused():
                    meter = Meter(server)
                    start = asyncio.get_running_loop().time() + LEAD_S
                    await run.run(self._sender(client, plan), start)
                    measured = meter.read()
                server.window(False)
                found = await self._search(client) if search else None
                return warm, measured, found

        warm, (cpu, steal, wall), found = asyncio.run(session())
        sites, picks = plan["sites"], plan["picks"]
        positions = [key_position(self.expected[s][p]) for s, p in zip(sites, picks)]
        truth = [self.pools[s].true_positions[p] for s, p in zip(sites, picks)]
        window = Window(
            latencies_s=run.latency_s,
            frames=run.answered,
            wall_s=wall,
            cpu_by_pid=cpu,
            steal=steal,
            attempted=int(run.offsets.size),
            failed=run.failed,
            mismatched=self._check(run, plan) + self._check(warm, warmup),
            errors_m=errors_m(positions, truth),
            generator=run,
            extra={"offered_qps": (AIO_RATE, "1/s")},
        )
        if found is not None:
            rate, bad, late = found
            window.mismatched += bad
            window.extra["sustained_qps"] = (rate, "1/s")
            window.extra["search.failing_gen_late_p99_ms"] = (late, "ms")
            window.flags["search_generator_behind"] = late > GEN_LATE_LIMIT_MS
        return window


class InprocTrace(Workload):
    """Closed-loop ``query_trace`` calls on the large-cell sites, no wire."""

    wire = False

    def __init__(self, seed: int) -> None:
        from repro.sim.trace import LiveTrace

        self.traces = inputs.trace_pool(seed, TRACE_SITES, TRACES_PER_SITE, TRACE_DAY)
        reference = reference_service(TRACE_SITES)
        for site in TRACE_SITES:
            reference.update(site, TRACE_DAY)
        self.expected = []
        for pool in self.traces:
            trace = LiveTrace(day=pool.day, rss=pool.rss)
            result = reference.query_trace(pool.site, trace)
            self.expected.append((result.cells, result.positions))

    def _same(self, index: int, cells: np.ndarray, positions: np.ndarray) -> bool:
        want_cells, want_positions = self.expected[index]
        return (
            np.array_equal(cells, want_cells)
            and positions.tobytes() == want_positions.tobytes()
        )

    def _start(self, server: ServerProcess, traced: bool) -> None:
        first = server.call(
            "inproc_build",
            TRACE_SITES,
            TRACE_DAY,
            [(pool.site, pool.day, pool.rss) for pool in self.traces],
            traced,
        )
        if not self._same(0, first["cells"], first["positions"]):
            raise AssertionError(
                "inproc-trace: first answer differs from the reference"
            )

    def drive(
        self, server: ServerProcess, seconds: float, search: bool, part: int
    ) -> Window:
        ticks = procstat.host_ticks()
        reply = server.call("inproc_loop", seconds)
        steal = procstat.steal_share(ticks, procstat.host_ticks())
        wrong_first = sum(
            not self._same(index, cells, positions)
            for index, (cells, positions) in enumerate(reply["first"])
        )
        latencies = reply["latencies_ns"] / 1e9
        truth = np.concatenate([pool.true_positions for pool in self.traces])
        positions = np.concatenate([positions for _, positions in self.expected])
        return Window(
            latencies_s=latencies,
            frames=int(reply["frames"]),
            wall_s=float(reply["wall_s"]),
            cpu_by_pid={server.pids[0]: float(reply["cpu_s"])},
            steal=steal,
            attempted=int(latencies.size),
            failed=0,
            mismatched=int(reply["mismatched"]) + wrong_first,
            errors_m=errors_m(positions, truth),
            extra={
                "batch_p50_ms": (percentile_ms(latencies, 50), "ms"),
                "batch_p99_ms": (percentile_ms(latencies, 99), "ms"),
                "pool_frames": (float(truth.shape[0]), "count"),
            },
        )


class ShardedRefresh(Workload):
    """Open-loop reads beside scheduled updates on a replicated shard fleet.

    Measured on the last three launches, 5 s each at ``--seconds 15``, so
    each window holds five updates. Each window continues the update
    rotation where the one before left off. The CPU per query is mostly
    update work, and it differed by up to a quarter between runs that
    measured one server.
    """

    measured_launches = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pools: Dict[Tuple[int, float], inputs.FramePool] = {}
        reference = reference_service(WIRE_SITES, share_pipelines=False)
        self.first_pool = self._pool(0, 0.0)
        self.first_expected = reference_answer(
            reference, WIRE_SITES[0], self.first_pool.rss[0], 0.0
        )

    def _pool(self, site: int, day: float) -> inputs.FramePool:
        key = (site, day)
        if key not in self.pools:
            self.pools[key] = inputs.frame_pool(
                self.seed, WIRE_SITES[site], day, SHARD_POOL
            )
        return self.pools[key]

    @staticmethod
    def schedule(seconds: float, part: int = 0) -> List[Tuple[float, int, float]]:
        """(offset, site, day) of each update: one every UPDATE_INTERVAL_S,
        rotating through the sites, each site's days rising. Window
        ``part`` of a run continues the rotation where the windows before
        it, of the same length, left off, so short windows still update
        every site between them."""
        sites = len(WIRE_SITES)
        count = int(seconds / UPDATE_INTERVAL_S)
        return [
            (
                (k - part * count + 0.5) * UPDATE_INTERVAL_S,
                k % sites,
                UPDATE_DAY_STEP * (k // sites + 1),
            )
            for k in range(part * count, (part + 1) * count)
        ]

    def _start(self, server: ServerProcess, traced: bool) -> None:
        async def first(client) -> bool:
            answer = await client.query(WIRE_SITES[0], self.first_pool.rss[0], 0.0)
            return remote_key(answer) == self.first_expected

        self._serve(server, "sharded-refresh", traced, first)

    def drive(
        self, server: ServerProcess, seconds: float, search: bool, part: int
    ) -> Window:
        from repro.serve.aio import AsyncServiceClient

        plan = inputs.open_loop_plan(
            self.seed, SHARD_RATE, seconds, len(WIRE_SITES), SHARD_POOL
        )
        updates = self.schedule(seconds, part)
        days = {(site, 0.0) for site in range(len(WIRE_SITES))}
        days.update((site, day) for _, site, day in updates)
        days = sorted(days)
        for site, day in days:
            self._pool(site, day)
        run = OpenLoop(plan["offsets"])
        current = [0.0] * len(WIRE_SITES)
        sent_days = np.zeros(plan["offsets"].size)
        update_latency = np.full(len(updates), np.nan)
        acknowledged: List[int] = []

        def sender(reads):
            def send(index: int):
                site = int(plan["sites"][index])
                day = sent_days[index] = current[site]
                frame = self.pools[(site, day)].rss[plan["picks"][index]]
                return reads.query(WIRE_SITES[site], frame, day)

            return send

        async def update_stream(writes, start: float) -> None:
            loop = asyncio.get_running_loop()
            for number, (offset, site, day) in enumerate(updates):
                delay = start + offset - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    body = await writes.update(WIRE_SITES[site], day)
                except Exception:  # noqa: BLE001 - counted as failed
                    continue
                finally:
                    update_latency[number] = loop.time() - (start + offset)
                if body.get("action") == "updated":
                    current[site] = day
                    acknowledged.append(number)

        async def session():
            async with AsyncServiceClient(server.address) as reads, AsyncServiceClient(
                server.address
            ) as writes:
                server.window(True)
                with collector_paused():
                    meter = Meter(server)
                    loop = asyncio.get_running_loop()
                    start = loop.time() + LEAD_S
                    writer = loop.create_task(update_stream(writes, start))
                    await run.run(sender(reads), start)
                    await writer
                    measured = meter.read()
                server.window(False)
                return measured

        cpu, steal, wall = asyncio.run(session())

        # Replay the acknowledged updates, in order, on an in-process
        # service, and answer every pool frame of every (site, day) the
        # window could query. Each answer must match bit for bit, and
        # median_error_m over all pool frames depends on the seed alone,
        # not on update timing.
        replay = reference_service(WIRE_SITES, share_pipelines=False)
        for number in acknowledged:
            _, site, day = updates[number]
            replay.update(WIRE_SITES[site], day)
        expected = {
            (site, day): [
                reference_answer(replay, WIRE_SITES[site], row, day)
                for row in self.pools[(site, day)].rss
            ]
            for site, day in days
        }
        mismatched = 0
        for index, answer in enumerate(run.answers):
            if answer is not None:
                key = (int(plan["sites"][index]), float(sent_days[index]))
                want = expected[key][int(plan["picks"][index])]
                mismatched += remote_key(answer) != want
        positions = [key_position(answer) for key in days for answer in expected[key]]
        truth = np.concatenate([self.pools[key].true_positions for key in days])
        return Window(
            latencies_s=run.latency_s,
            frames=run.answered,
            wall_s=wall,
            cpu_by_pid=cpu,
            steal=steal,
            attempted=int(run.offsets.size) + len(updates),
            failed=run.failed + len(updates) - len(acknowledged),
            mismatched=mismatched,
            errors_m=errors_m(positions, truth),
            generator=run,
            extra={
                "offered_qps": (SHARD_RATE, "1/s"),
                "update_p50_ms": (percentile_ms(update_latency, 50), "ms"),
                "update_p99_ms": (percentile_ms(update_latency, 99), "ms"),
                "updates": (float(len(updates)), "count"),
            },
        )


WORKLOADS = {
    "aio-single": AioSingle,
    "inproc-trace": InprocTrace,
    "sharded-refresh": ShardedRefresh,
}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _measure(
    workload: Workload,
    server: ServerProcess,
    seconds: float,
    traced: bool,
    setup_s: float,
    search: bool,
    part: int,
) -> Outcome:
    tracer = None
    if traced and workload.wire:
        tracer = Tracer(server.client_window)
        layers.install(tracer, layers.CLIENT_TARGETS)
    try:
        window = workload.drive(server, seconds, search, part)
        peak = server.peak_rss_mb()
        frontend_rss = procstat.peak_rss_mb(server.pids[0])
        router = server.call("report")["router"] or {}
        stopped = server.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.close()
    frames = max(window.frames, 1)
    slices = {
        "query_p50_ms": slice_percentiles_ms(window.latencies_s, 50),
        "query_p99_ms": slice_percentiles_ms(window.latencies_s, 99),
    }
    metrics = {
        "setup_s": setup_s,
        "frames_per_s": window.frames / window.wall_s,
        "server_cpu_us_per_frame": sum(window.cpu_by_pid.values()) * 1e6 / frames,
        "median_error_m": float(np.median(window.errors_m)),
        "peak_rss_mb": peak,
    }
    metrics.update({name: statistics.median(values) for name, values in slices.items()})
    extra = dict(window.extra)
    extra["query_p999_ms"] = (percentile_ms(window.latencies_s, 99.9), "ms")
    # Share of the host's CPU time the hypervisor gave to other guests
    # during the window: latency follows it.
    extra["host_steal_share"] = (window.steal, "1")
    flags = dict(window.flags)
    measured: Dict[str, float] = {}
    generator = window.generator
    if generator is not None:
        late = generator.late_p99_ms()
        extra["gen.late_p99_ms"] = (late, "ms")
        extra["gen.cpu_us_per_query"] = (generator.cpu_s * 1e6 / frames, "us")
        flags["generator_behind"] = late > GEN_LATE_LIMIT_MS
        measured["gen.late_p99_ms"] = late
        measured["gen.cpu_us_per_query"] = generator.cpu_s * 1e6 / frames
    if workload.wire:
        front, workers = server.pids[0], server.pids[1:]
        measured["frontend.cpu_us_per_query"] = window.cpu_by_pid[front] * 1e6 / frames
        measured["frontend.rss_mb"] = frontend_rss
        measured["shard.worker_cpu_us_per_query"] = (
            sum(window.cpu_by_pid[pid] for pid in workers) * 1e6 / frames
        )
    for name in ("failovers", "timeouts", "respawns"):
        measured[f"shard.{name}"] = router.get(name, 0)
    outcome = Outcome(
        metrics=metrics,
        extra=extra,
        attempted=window.attempted,
        failed=window.failed,
        mismatched=window.mismatched,
        flags=flags,
        slices=slices,
        measured=measured,
    )
    if traced:
        outcome.summaries = [summary for _, summary in stopped["spans"]]
        if tracer is not None:
            outcome.summaries.append(summarize(tracer.spans))
        outcome.flags["worker_span_flushes"] = stopped["workers_flushed"]
    return outcome


def _launch_timed(workload: Workload, traced: bool) -> Tuple[ServerProcess, float]:
    server = workload.launch(traced)
    return server, time.perf_counter() - server.launched_at


def _median_outcome(outcomes: List[Outcome], setups: List[float]) -> Outcome:
    """Median of every metric over the windows; counts are summed."""
    flags: Dict[str, Any] = {}
    for outcome in outcomes:
        for name, value in outcome.flags.items():
            flags[name] = flags.get(name, False) or value
    extra = {}
    for name, (_, unit) in outcomes[-1].extra.items():
        values = [o.extra[name][0] for o in outcomes if name in o.extra]
        extra[name] = (statistics.median(values), unit)
    metrics = {
        name: statistics.median(o.metrics[name] for o in outcomes)
        for name, _ in REPORTED
    }
    for name in outcomes[0].slices:
        metrics[name] = statistics.median(v for o in outcomes for v in o.slices[name])
    metrics["setup_s"] = statistics.median(setups)
    return Outcome(
        metrics=metrics,
        extra=extra,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        mismatched=sum(o.mismatched for o in outcomes),
        flags=flags,
        windows=[o.metrics for o in outcomes],
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workload = WORKLOADS[name](seed)
    if trace:
        return _traced_run(workload, seconds)
    measured = workload.measured_launches
    setups, outcomes = [], []
    for number in range(LAUNCHES):
        server, setup_s = _launch_timed(workload, False)
        setups.append(setup_s)
        part = number - (LAUNCHES - measured)
        if part < 0:
            server.stop()
            continue
        last = number == LAUNCHES - 1
        outcomes.append(
            _measure(workload, server, seconds / measured, False, setup_s, last, part)
        )
    return _median_outcome(outcomes, setups)


#: Router counters: summed over a traced run's windows, not medians.
ROUTER_COUNTERS = ("shard.failovers", "shard.timeouts", "shard.respawns")


def _traced_run(workload: Workload, seconds: float) -> Outcome:
    """TRACE_PAIRS untraced and traced windows, alternating, so drift of
    the host hits both alike. A single pair differed by as much as server
    processes with identical inputs do (NOTES.md, finding 3)."""
    windows: Dict[bool, List[Outcome]] = {False: [], True: []}
    setups: Dict[bool, List[float]] = {False: [], True: []}
    for part in range(TRACE_PAIRS):
        for traced in (False, True):
            server, setup_s = _launch_timed(workload, traced)
            setups[traced].append(setup_s)
            windows[traced].append(
                _measure(
                    workload, server, seconds / (2 * TRACE_PAIRS), traced,
                    setup_s, False, part,
                )
            )
    untraced = _median_outcome(windows[False], setups[False])
    outcome = _median_outcome(windows[True], setups[True])
    measured = {
        name: statistics.median(o.measured[name] for o in windows[True])
        for name in windows[True][0].measured
    }
    for name in ROUTER_COUNTERS:
        measured[name] = sum(o.measured[name] for o in windows[True])
    summaries = [summary for o in windows[True] for summary in o.summaries]
    outcome.per_layer = layers.per_layer_metrics(merge(summaries), measured)
    overhead = (
        outcome.metrics["server_cpu_us_per_frame"]
        - untraced.metrics["server_cpu_us_per_frame"]
    )
    outcome.per_layer["trace.overhead_cpu_us_per_frame"] = overhead
    # An overhead inside the range of the untraced windows is noise.
    cpu = [o.metrics["server_cpu_us_per_frame"] for o in windows[False]]
    outcome.flags["trace_overhead_resolved"] = abs(overhead) > max(cpu) - min(cpu)
    outcome.per_layer["trace.overhead_p50_ms"] = (
        outcome.metrics["query_p50_ms"] - untraced.metrics["query_p50_ms"]
    )
    for metric, unit in REPORTED:
        outcome.extra[f"untraced.{metric}"] = (untraced.metrics[metric], unit)
        outcome.extra[f"traced.{metric}"] = (outcome.metrics[metric], unit)
    outcome.flags["worker_span_flushes"] = sum(
        o.flags["worker_span_flushes"] for o in windows[True]
    )
    outcome.attempted += untraced.attempted
    outcome.failed += untraced.failed
    outcome.mismatched += untraced.mismatched
    return outcome
