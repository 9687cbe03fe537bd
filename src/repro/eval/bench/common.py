"""Shared vocabulary of the bench-section registry.

:class:`BenchConfig` is the one immutable config object every section's
``run`` receives — the union of all section knobs, with ``None`` meaning
"skip this section" for the optional ones (the historical
``run_perf_bench`` contract). The helpers here (spec resolution, best-of
timing, host metadata, the per-site query workload, the bit-identity
predicate and the fleet phase runner) are the pieces the sections would
otherwise duplicate; they live in one place so a new section is *only*
its measurement logic plus a ``register()`` call, and so every smoke
gate judges identity the same way.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.loli_ir import LoliIrConfig
from repro.eval.engine import cached_scenario
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.deployment import Deployment
from repro.sim.specs import (
    ScenarioSpec,
    build_deployment,
    build_scenario,
    get_scenario_spec,
)
from repro.util.rng import counter_stream, task_key
from repro.util.stats import latency_summary

__all__ = [
    "BENCH_SEED",
    "BenchConfig",
    "DEFAULT_SIZES",
    "LEGACY_SOLVER",
    "StageTiming",
    "bench_spec",
    "best_of",
    "build_bench_deployment",
    "host_metadata",
    "identical",
    "run_phase",
    "site_workloads",
    "unknown_site_error",
]

#: The PR-1 solver configuration: matrix-free CG half-steps, no outer
#: extrapolation, tight inner tolerance — the baseline every fast-path
#: speedup in the committed benchmarks is measured against.
LEGACY_SOLVER = LoliIrConfig(
    method="cg", accelerate=False, cg_tol=1e-9, tol=1e-7
)

#: Deployment sizes benchmarked by default; the 6 m square is the 100-cell
#: grid of the PR-1 acceptance criterion.
DEFAULT_SIZES = ("paper", "square-6m", "square-12m")

BENCH_SEED = 2016


@dataclass(frozen=True)
class BenchConfig:
    """Every knob of every registered section, in one frozen object.

    Sections read only their own fields; ``None`` on a ``*_sites`` /
    ``engine_jobs`` field means that section is skipped (the historical
    ``run_perf_bench`` keyword contract, preserved verbatim so committed
    ``BENCH_PR*.json`` files stay comparable).
    """

    sizes: Sequence[str] = DEFAULT_SIZES
    frames: int = 500
    samples_per_cell: int = 10
    repeat: int = 3
    seed: int = BENCH_SEED
    engine_jobs: Optional[int] = None
    engine_scenario: Union[str, ScenarioSpec] = "paper"
    serving_sites: Optional[Sequence[str]] = None
    frontend_sites: Optional[Sequence[str]] = None
    frontend_shards: Sequence[int] = (1, 2)
    frontend_async_sites: Optional[Sequence[str]] = None
    frontend_async_connections: Sequence[int] = (1, 2, 4)
    resilience_sites: Optional[Sequence[str]] = None
    resilience_replicas: int = 2
    resilience_shards: int = 3
    trust_sites: Optional[Sequence[str]] = None
    # --- loadgen section (PR-10) -------------------------------------
    loadgen_sites: Optional[Sequence[str]] = None
    loadgen_transports: Sequence[str] = ("http", "aio")
    loadgen_shards: Sequence[int] = (1, 2)
    loadgen_slo_ms: float = 50.0
    loadgen_percentile: str = "p99_ms"
    loadgen_requests: int = 240
    loadgen_start_qps: float = 100.0
    loadgen_max_qps: float = 50_000.0
    loadgen_zipf_s: float = 1.1
    loadgen_arrival: str = "open"
    loadgen_process: str = "poisson"
    loadgen_clients: int = 4
    loadgen_soak_sites: int = 0
    loadgen_perturb: bool = True

    extras: Dict[str, object] = field(default_factory=dict)


def bench_spec(size: str) -> ScenarioSpec:
    """Scenario spec for a named benchmark size.

    Any registered scenario name works (``warehouse``, ``atrium``, …), plus
    the generic ``square-<edge>m`` pattern — the bench rows carry the
    resolved scenario name so cross-environment runs stay attributable.
    """
    try:
        return get_scenario_spec(size)
    except KeyError as error:
        raise ValueError(str(error)) from None


def build_bench_deployment(size: str) -> Deployment:
    """Deployment for a named benchmark size."""
    return build_deployment(bench_spec(size).geometry)


def best_of(fn: Callable[[], object], repeat: int) -> float:
    """Best (minimum) wall time of ``repeat`` runs of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def host_metadata() -> Dict[str, object]:
    """Host facts stamped into every benchmark section.

    Throughput numbers from a 1-core CI container and a 16-core
    workstation are not comparable; recording ``cpu_count`` and the
    platform string next to every section keeps the committed
    ``BENCH_*`` trajectory attributable to the host that produced it.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class StageTiming:
    """Batch-vs-loop wall time of one benchmark stage."""

    batch_s: float
    loop_s: float

    @property
    def speedup(self) -> float:
        if self.batch_s <= 0:
            return float("inf")
        return self.loop_s / self.batch_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "batch_s": self.batch_s,
            "loop_s": self.loop_s,
            "speedup": self.speedup,
        }


def site_workloads(
    specs: Mapping[str, ScenarioSpec],
    protocol: CollectionProtocol,
    frames: int,
    seed: int,
    stream: int,
    label: str,
) -> Dict[str, np.ndarray]:
    """One live RSS trace per site: ``frames`` frames at day 0.

    Site ``i`` draws its cells from ``counter_stream(seed, stream + i)``
    and its noise from ``task_key(seed, label, site)``; each section
    passes its own ``stream`` base and ``label``, so sections measure
    distinct workloads while each stays bit-identical run to run.
    """
    workloads: Dict[str, np.ndarray] = {}
    for index, (site, spec) in enumerate(specs.items()):
        scenario = cached_scenario(spec, build_scenario)
        cells = counter_stream(seed, stream + index).integers(
            0, scenario.deployment.cell_count, size=frames
        )
        workloads[site] = RssCollector(
            scenario, protocol, seed=task_key(seed, label, site)
        ).live_trace(0.0, cells).rss
    return workloads


def identical(result, reference) -> bool:
    """Bit-identity of two batch answers.

    Cells and positions always; scores whenever both sides carry them
    (a wire answer carries them only when asked with
    ``include_scores=True``).
    """
    scores = getattr(result, "scores", None)
    expected = getattr(reference, "scores", None)
    return bool(
        np.array_equal(result.cells, reference.cells)
        and np.array_equal(result.positions, reference.positions)
        and (
            scores is None
            or expected is None
            or np.array_equal(scores, expected)
        )
    )


def run_phase(
    fleet,
    workloads: Mapping[str, np.ndarray],
    expected: Mapping[str, object],
    count: int,
) -> Dict[str, object]:
    """``count`` round-robin ``query_batch`` calls, every answer checked.

    A call that raises ``OSError`` (the fleet's unavailable, timeout and
    connection errors) is a failed query; an answer that is not
    :func:`identical` to ``expected`` — or is marked ``stale`` — is a
    mismatched one. Returns both counts and the latency summary.
    """
    sites = list(workloads)
    latencies: List[float] = []
    failed = mismatched = 0
    for op in range(count):
        site = sites[op % len(sites)]
        begin = time.perf_counter()
        try:
            result = fleet.query_batch(site, workloads[site], 0.0)
        except OSError:
            failed += 1
            continue
        latencies.append(time.perf_counter() - begin)
        if not identical(result, expected[site]) or getattr(
            result, "stale", False
        ):
            mismatched += 1
    return {
        "failed_queries": failed,
        "mismatched_queries": mismatched,
        "latency": latency_summary(latencies),
    }


def unknown_site_error(client, frames: np.ndarray) -> Optional[str]:
    """Class name of what a query for an unregistered site raises.

    The wire error contract maps the server's 404 back to ``KeyError``,
    as the in-process service raises; ``None`` means nothing was raised.
    """
    try:
        client.query_batch("nowhere", frames, 0.0)
    except Exception as error:  # noqa: BLE001 - the class is the answer
        return type(error).__name__
    return None
