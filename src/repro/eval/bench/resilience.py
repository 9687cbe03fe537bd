"""The ``resilience`` bench section: worker kill / failover / restore / resize."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    identical,
    run_phase,
    site_workloads,
)
from repro.eval.bench.registry import BenchSection, register
from repro.serve import LocalizationService, ShardedService
from repro.serve.faults import FaultInjector, FaultSchedule
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_resilience"]


def bench_resilience(
    *,
    sites: Sequence[str] = ("square-3m", "square-4m", "square-5m"),
    shards: int = 3,
    replicas: int = 2,
    frames: int = 24,
    samples_per_cell: int = 2,
    operations: int = 30,
    seed: int = BENCH_SEED,
    recovery_timeout_s: float = 120.0,
) -> Dict[str, object]:
    """Benchmark the fleet's fault tolerance: kill every worker, count losses.

    The measurement behind the PR-6 acceptance claims, all on one
    snapshot-backed :class:`~repro.serve.shard.ShardedService` fleet
    (``shards`` workers, R = ``replicas``):

    * **failed / mismatched queries** — a round-robin ``query_batch``
      workload runs before any fault, straight after a ``kill -9`` of
      each worker in turn (starting at the seed-scheduled
      :class:`~repro.serve.faults.FaultSchedule` victim), and again
      after recovery; every answer is checked bit-for-bit (scores
      included) against an undisturbed in-process service. With
      R >= 2 the target is zero failures and zero mismatches in every
      phase.
    * **recovery** — per kill, wall time from the SIGKILL to the victim
      answering again, plus how many of its sites the respawn restored
      from snapshots (the target is > 0: a respawn must not re-survey).
    * **tail latency** — p50/p99 per phase, so the perturbation the
      failover + background respawn causes is a number, not a vibe.
    * **fan-out and resize identity** — after recovery a
      ``map_query_batch`` fan-out, then a live resize up one shard and
      down to one fewer than the start, must answer bit-identically.
    * **warm paths** — ``cold_warm_s`` (first fleet warm: full
      commissioning surveys) vs ``snapshot_warm_s`` (a second fleet over
      the same snapshot directory), the restore-vs-rebuild speedup a
      respawn rides.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    specs = {f"site-{name}": bench_spec(name) for name in sites}
    workloads = site_workloads(
        specs, protocol, frames, seed, 500, "resilience-workload"
    )
    reference = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed, share_pipelines=False
    )
    reference.warm()
    expected = {
        site: reference.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }

    record: Dict[str, object] = {
        "sites": list(specs),
        "shards": int(shards),
        "replicas": int(replicas),
        "frames": int(frames),
        "operations": int(operations),
    }

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_dir = Path(tmp) / "snapshots"
        fleet = ShardedService(
            specs,
            shards=shards,
            replicas=replicas,
            snapshot_dir=snapshot_dir,
            call_timeout=60.0,
            protocol=protocol,
            seed=seed,
        )
        try:
            start = time.perf_counter()
            fleet.warm()
            record["cold_warm_s"] = time.perf_counter() - start
            record["before"] = run_phase(fleet, workloads, expected, operations)

            schedule = FaultSchedule.generate(
                seed=seed, operations=operations, shards=shards, faults=1
            )
            first = schedule.events[0].target
            injector = FaultInjector(fleet)
            kills: List[Dict[str, object]] = []
            for victim in [(first + k) % shards for k in range(shards)]:
                killed_at = time.perf_counter()
                injector.kill(victim)
                # Under load straight through the outage: with R >= 2
                # every query fails over to a live replica and answers.
                kill = {
                    "shard": int(victim),
                    **run_phase(fleet, workloads, expected, operations),
                }
                recovered = False
                deadline = time.monotonic() + recovery_timeout_s
                while time.monotonic() < deadline:
                    fleet.health()  # the monitoring poll drives the respawn
                    if fleet._shards[victim].alive():
                        recovered = True
                        break
                    time.sleep(0.02)
                kill["recovery_s"] = time.perf_counter() - killed_at
                kill["recovered"] = recovered
                kill["snapshots_restored"] = (
                    int(fleet._shards[victim].call("health")["snapshots_restored"])
                    if recovered
                    else 0
                )
                kills.append(kill)
            record["kills"] = kills
            record["after"] = run_phase(fleet, workloads, expected, operations)
            results = fleet.map_query_batch(
                [(site, rss, 0.0) for site, rss in workloads.items()]
            )
            record["after_fanout_mismatched_sites"] = [
                site
                for site, result in zip(workloads, results)
                if not identical(result, expected[site])
            ]
            grown = fleet.resize(shards + 1)
            grow = run_phase(fleet, workloads, expected, len(workloads))
            shrunk = fleet.resize(max(1, shards - 1))
            shrink = run_phase(fleet, workloads, expected, len(workloads))
            record["resize"] = {
                "shards": [int(shards), int(shards) + 1, max(1, int(shards) - 1)],
                "moved_sites": [
                    len(grown["moved_sites"]),
                    len(shrunk["moved_sites"]),
                ],
                "failed_queries": (
                    grow["failed_queries"] + shrink["failed_queries"]
                ),
                "mismatched_queries": (
                    grow["mismatched_queries"] + shrink["mismatched_queries"]
                ),
            }
            record["router_stats"] = {
                "failovers": fleet.router_stats.failovers,
                "timeouts": fleet.router_stats.timeouts,
                "respawns": fleet.router_stats.respawns,
                "respawn_failures": fleet.router_stats.respawn_failures,
            }
        finally:
            fleet.close()

        # A second fleet over the same snapshot directory: the warm that a
        # respawn rides, vs the cold commissioning surveys above.
        revived = ShardedService(
            specs,
            shards=shards,
            replicas=replicas,
            snapshot_dir=snapshot_dir,
            call_timeout=60.0,
            protocol=protocol,
            seed=seed,
        )
        try:
            start = time.perf_counter()
            revived.warm()
            record["snapshot_warm_s"] = time.perf_counter() - start
            record["snapshot_warm_restored"] = int(
                sum(
                    shard.call("health")["snapshots_restored"]
                    for shard in revived._shards
                )
            )
            record["snapshot_warm_bit_identical"] = all(
                identical(revived.query_batch(site, rss, 0.0), expected[site])
                for site, rss in workloads.items()
            )
        finally:
            revived.close()

    cold = record["cold_warm_s"]
    warm = record["snapshot_warm_s"]
    record["restore_speedup"] = cold / warm if warm > 0 else float("inf")
    record["zero_loss"] = all(
        phase["failed_queries"] == 0 and phase["mismatched_queries"] == 0
        for phase in [record["before"], *kills, record["after"]]
    )
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.resilience_sites is None:
        return None
    return bench_resilience(
        sites=config.resilience_sites,
        shards=config.resilience_shards,
        replicas=config.resilience_replicas,
        samples_per_cell=config.samples_per_cell,
        seed=config.seed,
    )


def _phase_cell(row: Dict[str, object]) -> str:
    latency = row["latency"]
    return (
        f"failed {row['failed_queries']} | "
        f"mismatched {row['mismatched_queries']} | "
        f"p50 {latency.get('p50_ms', float('nan')):.1f} ms | "
        f"p99 {latency.get('p99_ms', float('nan')):.1f} ms"
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"resilience ({record['shards']} shards, "
        f"R={record['replicas']}, kill -9 of every shard in turn under "
        "load):"
    )
    lines.append(f"  before  {_phase_cell(record['before'])}")
    for kill in record["kills"]:
        lines.append(
            f"  kill {kill['shard']:<2} {_phase_cell(kill)} | recovered in "
            f"{kill['recovery_s']:.2f}s, {kill['snapshots_restored']} "
            "site(s) snapshot-restored"
        )
    lines.append(f"  after   {_phase_cell(record['after'])}")
    resize = record["resize"]
    lines.append(
        f"  resize {'->'.join(str(n) for n in resize['shards'])} moved "
        f"{'/'.join(str(n) for n in resize['moved_sites'])} site(s), "
        f"mismatched {resize['mismatched_queries']} | warm cold "
        f"{record['cold_warm_s']:.2f}s vs snapshot "
        f"{record['snapshot_warm_s']:.2f}s "
        f"({record['restore_speedup']:.1f}x) | "
        f"{'ZERO LOSS' if record['zero_loss'] else 'QUERIES LOST'}"
    )
    return lines


def _lost(row: Dict[str, object]) -> str:
    return (
        f"{row['failed_queries']} failed, "
        f"{row['mismatched_queries']} mismatched"
    )


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    before = record["before"]
    if before["failed_queries"] or before["mismatched_queries"]:
        failures.append(f"resilience:before-kill: {_lost(before)}")
    for kill in record["kills"]:
        shard = kill["shard"]
        if (
            kill["failed_queries"]
            or kill["mismatched_queries"]
            or not kill["recovered"]
        ):
            failures.append(
                f"resilience:kill-shard-{shard}: {_lost(kill)}, "
                f"recovered={kill['recovered']}"
            )
        if kill["snapshots_restored"] <= 0:
            failures.append(
                f"resilience:snapshot-warm-{shard}: the respawn restored "
                "no site from snapshots"
            )
    after = record["after"]
    mismatched_sites = record["after_fanout_mismatched_sites"]
    if after["failed_queries"] or after["mismatched_queries"] or mismatched_sites:
        failures.append(
            f"resilience:post-recovery-identity: {_lost(after)}, fan-out "
            f"mismatched on {mismatched_sites}"
        )
    resize = record["resize"]
    if resize["failed_queries"] or resize["mismatched_queries"]:
        failures.append(f"resilience:resize: {_lost(resize)}")
    if not record["snapshot_warm_bit_identical"]:
        failures.append(
            "resilience:snapshot-restart-identity: a fleet warmed from "
            "snapshots answers differently"
        )
    return failures


register(
    BenchSection(
        name="resilience",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="resilience",
    )
)
