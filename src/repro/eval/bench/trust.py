"""The ``trust`` bench section: quorum reads, corruption repair, soak."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

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
from repro.serve.faults import FaultInjector
from repro.sim.collector import CollectionProtocol

__all__ = ["bench_trust"]


def bench_trust(
    *,
    sites: Sequence[str] = ("square-3m", "square-4m"),
    shards: int = 3,
    replicas: int = 2,
    frames: int = 24,
    operations: int = 20,
    samples_per_cell: int = 2,
    soak_days: int = 8,
    snapshot_keep: int = 2,
    seed: int = BENCH_SEED,
) -> Dict[str, object]:
    """Benchmark the anti-entropy trust layer (the PR-7 sections).

    * **quorum overhead** — the same workload through a failover fleet
      and a quorum fleet over identical snapshots: what cross-checking
      every read against all replicas costs in p50/p99 and q/s.
    * **corruption episode** — a seed-deterministic bit flip in the
      first site's primary replica, then the workload: wall time until
      the divergence is detected and the liar repaired, with the
      mismatched-answer count clients saw (the target is zero; a
      ``stale`` answer counts as mismatched), then a scrub that must
      find nothing left to repair.
    * **silent corruption** — a bit flip in the second site's secondary
      replica, which no read quorum touches: the scrub, not client
      traffic, must find and repair it, and the site must then answer
      bit-identically.
    * **degraded mode** — every replica of the first site killed: the
      fleet must answer from the last verified snapshot, marked
      ``stale``, bit-identically instead of raising.
    * **snapshot soak** — ``soak_days`` of daily update + lifecycle
      maintenance under keep-last-``snapshot_keep``: max files on disk,
      prune totals, final directory bytes — the boundedness record the
      PR-7 acceptance criterion points at.
    * **drift sentinel** — one measured-drift probe per site: reading
      and wall time (what a ``policy="drift"`` scheduler tick pays).
    """
    if len(sites) < 2:
        raise ValueError("the trust episodes need at least two sites")
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=5
    )
    specs = {f"site-{name}": bench_spec(name) for name in sites}
    workloads = site_workloads(
        specs, protocol, frames, seed, 700, "trust-workload"
    )
    reference = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed, share_pipelines=False
    )
    reference.warm()
    expected = {
        site: reference.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }
    site_list = list(specs)
    first = site_list[0]

    record: Dict[str, object] = {
        "sites": site_list,
        "shards": int(shards),
        "replicas": int(replicas),
        "frames": int(frames),
        "operations": int(operations),
    }

    for read_mode in ("failover", "quorum"):
        with tempfile.TemporaryDirectory() as tmp:
            fleet = ShardedService(
                specs,
                shards=shards,
                replicas=replicas,
                snapshot_dir=Path(tmp) / "snapshots",
                read_mode=read_mode,
                degraded_mode=True,
                call_timeout=60.0,
                protocol=protocol,
                seed=seed,
            )
            try:
                fleet.warm()
                record[read_mode] = run_phase(
                    fleet, workloads, expected, operations
                )
                if read_mode == "quorum":
                    _anti_entropy(
                        record, fleet, workloads, expected, operations, seed
                    )
            finally:
                fleet.close()
    failover_p50 = record["failover"]["latency"].get("p50_ms", 0.0)
    quorum_p50 = record["quorum"]["latency"].get("p50_ms", 0.0)
    record["quorum_overhead_x"] = (
        quorum_p50 / failover_p50 if failover_p50 > 0 else float("inf")
    )

    # Snapshot-lifecycle soak: the directory must stay bounded.
    with tempfile.TemporaryDirectory() as tmp:
        soak = LocalizationService.from_specs(
            {first: specs[first]},
            protocol=protocol,
            seed=seed,
            snapshot_dir=tmp,
            snapshot_keep=snapshot_keep,
        )
        soak.warm()
        store = soak.manager.snapshot_store
        max_files = 0
        for day in range(1, soak_days + 1):
            soak.update(first, float(day))
            maintenance = soak.manager.snapshot_maintenance()
            max_files = max(max_files, len(store.files()))
        record["snapshot_soak"] = {
            "days": int(soak_days),
            "keep_last": int(snapshot_keep),
            "max_files_on_disk": int(max_files),
            "files_pruned": int(store.pruned_files),
            "bytes_reclaimed": int(store.pruned_bytes),
            "final_bytes": int(maintenance["total_bytes"]),
            "bounded": bool(max_files <= snapshot_keep),
        }

    # Drift sentinel: the cost and reading of one measured-drift probe.
    drift: Dict[str, object] = {}
    for site in site_list:
        begin = time.perf_counter()
        reading = reference.drift(site, 0.0, frames=frames)
        drift[site] = {
            "probe_s": time.perf_counter() - begin,
            "degradation_m": float(reading["degradation_m"]),
        }
    record["drift"] = drift
    return record


def _anti_entropy(
    record: Dict[str, object],
    fleet: ShardedService,
    workloads: Dict[str, np.ndarray],
    expected: Dict[str, object],
    operations: int,
    seed: int,
) -> None:
    """The quorum fleet's episodes, in order, recorded into ``record``."""
    first, second = list(workloads)[:2]
    stats = fleet.router_stats
    injector = FaultInjector(fleet)

    # Corrupt the first site's primary: quorum reads must hide it while
    # the router alarms, quarantines and repairs the liar.
    begin = time.perf_counter()
    injector.corrupt(fleet.replicas[first][0], site=first, seed=seed)
    episode = run_phase(fleet, workloads, expected, operations)
    record["corruption_episode"] = {
        **episode,
        "detect_and_repair_s": time.perf_counter() - begin,
        "read_divergences": stats.read_divergences,
        "quarantines": stats.quarantines,
        "repairs": stats.repairs,
    }
    begin = time.perf_counter()
    scrub = fleet.scrub()
    record["scrub"] = {
        "pass_s": time.perf_counter() - begin,
        "sites_checked": scrub["sites_checked"],
        "divergent_sites": scrub["divergent_sites"],
        "quarantined": len(fleet.quarantined_replicas()),
    }

    # Corrupt the second site's secondary: no read quorum touches it,
    # so only the scrub can find it.
    injector.corrupt(fleet.replicas[second][1], site=second, seed=seed + 1)
    scrub = fleet.scrub()
    record["silent_corruption"] = {
        "site": second,
        "divergent_sites": scrub["divergent_sites"],
        "repaired": scrub["repaired"],
        "after": run_phase(fleet, {second: workloads[second]}, expected, 1),
    }

    # Kill every replica of the first site: degraded mode must answer
    # from the last verified snapshot, marked stale.
    for index in set(fleet.replicas[first]):
        injector.kill(index)
    degraded: Dict[str, object] = {"site": first, "error": None}
    try:
        result = fleet.query_batch(first, workloads[first], 0.0)
    except OSError as error:  # recorded; the smoke gate reports it
        degraded["error"] = repr(error)
    else:
        degraded["stale"] = bool(getattr(result, "stale", False))
        degraded["bit_identical"] = identical(result, expected[first])
    degraded["degraded_answers"] = stats.degraded_answers
    record["degraded"] = degraded


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.trust_sites is None:
        return None
    return bench_trust(
        sites=config.trust_sites,
        samples_per_cell=config.samples_per_cell,
        seed=config.seed,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"trust ({record['shards']} shards, R={record['replicas']}, "
        "anti-entropy):"
    )
    for mode in ("failover", "quorum"):
        latency = record[mode]["latency"]
        lines.append(
            f"  {mode:<8} p50 "
            f"{latency.get('p50_ms', float('nan')):.1f} ms | p99 "
            f"{latency.get('p99_ms', float('nan')):.1f} ms | "
            f"mismatched {record[mode]['mismatched_queries']}"
        )
    episode = record["corruption_episode"]
    lines.append(
        f"  corrupt   quorum overhead {record['quorum_overhead_x']:.2f}x"
        f" | episode {episode['detect_and_repair_s']:.2f}s | "
        f"{episode['read_divergences']} divergence(s), "
        f"{episode['repairs']} repair(s) | mismatched "
        f"{episode['mismatched_queries']}"
    )
    silent = record["silent_corruption"]
    degraded = record["degraded"]
    lines.append(
        f"  scrub     {silent['site']} secondary corrupted: divergent "
        f"{silent['divergent_sites']}, {silent['repaired']} repaired, "
        f"mismatched {silent['after']['mismatched_queries']} after | "
        f"degraded stale={degraded.get('stale')}, "
        f"bit-identical={degraded.get('bit_identical')}"
    )
    soak = record["snapshot_soak"]
    lines.append(
        f"  soak      {soak['days']} d, keep {soak['keep_last']}: "
        f"max {soak['max_files_on_disk']} file(s), "
        f"{soak['files_pruned']} pruned, "
        f"{soak['final_bytes']} B final | "
        f"{'BOUNDED' if soak['bounded'] else 'UNBOUNDED'}"
    )
    probes = ", ".join(
        f"{site} {row['degradation_m']:.2f} m in {row['probe_s']:.2f}s"
        for site, row in record["drift"].items()
    )
    lines.append(f"  drift     {probes}")
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    episode = record["corruption_episode"]
    if (
        episode["failed_queries"]
        or episode["mismatched_queries"]
        or min(
            episode["read_divergences"],
            episode["quarantines"],
            episode["repairs"],
        )
        < 1
    ):
        failures.append(
            f"trust:quorum-read-repair: {episode['failed_queries']} failed, "
            f"{episode['mismatched_queries']} mismatched, "
            f"{episode['read_divergences']} divergence(s), "
            f"{episode['quarantines']} quarantine(s), "
            f"{episode['repairs']} repair(s)"
        )
    scrub = record["scrub"]
    if scrub["divergent_sites"] or scrub["quarantined"]:
        failures.append(
            f"trust:scrub-clean-after-repair: divergent "
            f"{scrub['divergent_sites']}, {scrub['quarantined']} quarantined"
        )
    silent = record["silent_corruption"]
    if silent["site"] not in silent["divergent_sites"] or silent["repaired"] < 1:
        failures.append(
            f"trust:scrub-detects-silent-corruption: divergent "
            f"{silent['divergent_sites']}, repaired {silent['repaired']}"
        )
    after = silent["after"]
    if after["failed_queries"] or after["mismatched_queries"]:
        failures.append(
            f"trust:post-scrub-identity: {after['failed_queries']} failed, "
            f"{after['mismatched_queries']} mismatched"
        )
    degraded = record["degraded"]
    if not (degraded.get("stale") and degraded.get("bit_identical")):
        failures.append(
            f"trust:degraded-stale-answer: stale={degraded.get('stale')}, "
            f"bit_identical={degraded.get('bit_identical')}, "
            f"error={degraded['error']}"
        )
    soak = record["snapshot_soak"]
    if not soak["bounded"] or soak["files_pruned"] <= 0:
        failures.append(
            f"trust:snapshot-retention: max {soak['max_files_on_disk']} "
            f"file(s) on disk (keep={soak['keep_last']}), "
            f"{soak['files_pruned']} pruned"
        )
    return failures


register(
    BenchSection(
        name="trust",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="trust",
    )
)
