"""The ``frontend`` bench section: threaded wire front-ends + shards."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    bench_spec,
    best_of,
    identical,
    site_workloads,
    unknown_site_error,
)
from repro.eval.bench.registry import BenchSection, register
from repro.serve import (
    HttpFrontend,
    LocalizationService,
    ServiceClient,
    ShardedService,
    UnixFrontend,
)
from repro.sim.collector import CollectionProtocol
from repro.util.stats import latency_summary, timed_singles

__all__ = ["bench_frontend"]


def bench_frontend(
    *,
    sites: Sequence[str] = ("paper", "square-6m"),
    frames: int = 500,
    samples_per_cell: int = 10,
    repeat: int = 3,
    seed: int = BENCH_SEED,
    shard_counts: Sequence[int] = (1, 2),
    singles: int = 100,
) -> Dict[str, object]:
    """Benchmark the wire front-end and the shard layer.

    Three comparisons, all on the same per-site workloads:

    * **wire vs in-process** — the HTTP and unix-socket transports answer
      the same single queries and batches as direct
      :class:`~repro.serve.service.LocalizationService` calls;
      ``wire_overhead_x`` is in-process single-query throughput over HTTP
      single-query throughput (i.e. what one JSON round trip costs), and
      ``http_roundtrip_ms`` is the measured per-query wire latency.
    * **shard scaling** — a :class:`~repro.serve.shard.ShardedService`
      fans per-site batches out to ``n`` worker processes
      (:meth:`~repro.serve.shard.ShardedService.map_query_batch`);
      ``scaling_x`` is the fan-out throughput of ``n`` workers over 1
      worker (≈1 on a single core, → min(shards, cores, sites) on a
      multi-core host because workers own disjoint site sets).
    * **bit-identity** — every transport and every shard count must
      reproduce the in-process answers exactly, scores included; the
      smoke gates check each (transport, site) and (shard count, site)
      pair, plus the wire error contract (an unknown site comes back as
      ``KeyError``).
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=10
    )
    specs = {name: bench_spec(name) for name in sites}
    workloads = site_workloads(
        specs, protocol, frames, seed, 300, "frontend-workload"
    )
    service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed
    )
    service.warm()
    reference = {
        site: service.query_batch(site, rss, 0.0)
        for site, rss in workloads.items()
    }

    record: Dict[str, object] = {
        "sites": list(sites),
        "frames": int(frames),
        "singles": int(singles),
        "per_site": {},
        "shards": {},
    }

    def wire_rates(client) -> Dict[str, Dict[str, float]]:
        rates: Dict[str, Dict[str, float]] = {}
        for site, rss in workloads.items():
            # Warm-up + identity (scores included).
            wire = client.query_batch(site, rss, 0.0, include_scores=True)
            batch_s = best_of(
                lambda: client.query_batch(site, rss, 0.0), repeat
            )
            head = rss[: min(frames, singles)]
            single_s = best_of(
                lambda: [client.query(site, frame, 0.0) for frame in head],
                repeat,
            )
            latencies = timed_singles(
                lambda frame: client.query(site, frame, 0.0), head
            )
            rates[site] = {
                "batch_qps": frames / batch_s if batch_s > 0 else float("inf"),
                "single_qps": (
                    len(head) / single_s if single_s > 0 else float("inf")
                ),
                "roundtrip_ms": 1000.0 * single_s / len(head),
                "latency": latency_summary(latencies),
                "bit_identical": identical(wire, reference[site]),
            }
        return rates

    # In-process baseline on identical workloads.
    for site, rss in workloads.items():
        batch_s = best_of(lambda: service.query_batch(site, rss, 0.0), repeat)
        head = rss[: min(frames, singles)]
        single_s = best_of(
            lambda: [service.query(site, frame, 0.0) for frame in head],
            repeat,
        )
        record["per_site"][site] = {
            "inproc_batch_qps": (
                frames / batch_s if batch_s > 0 else float("inf")
            ),
            "inproc_single_qps": (
                len(head) / single_s if single_s > 0 else float("inf")
            ),
            "inproc_latency": latency_summary(
                timed_singles(
                    lambda frame: service.query(site, frame, 0.0), head
                )
            ),
        }

    with HttpFrontend(service) as frontend:
        with ServiceClient(frontend.address) as client:
            for site, rates in wire_rates(client).items():
                row = record["per_site"][site]
                row["http_batch_qps"] = rates["batch_qps"]
                row["http_single_qps"] = rates["single_qps"]
                row["http_roundtrip_ms"] = rates["roundtrip_ms"]
                row["http_latency"] = rates["latency"]
                row["http_bit_identical"] = rates["bit_identical"]
                row["wire_overhead_x"] = (
                    row["inproc_single_qps"] / rates["single_qps"]
                    if rates["single_qps"] > 0
                    else float("inf")
                )
            record["http_unknown_site_error"] = unknown_site_error(
                client, next(iter(workloads.values()))
            )

    with tempfile.TemporaryDirectory() as tmp:
        with UnixFrontend(service, str(Path(tmp) / "bench.sock")) as frontend:
            with ServiceClient(frontend.address) as client:
                for site, rates in wire_rates(client).items():
                    row = record["per_site"][site]
                    row["unix_batch_qps"] = rates["batch_qps"]
                    row["unix_single_qps"] = rates["single_qps"]
                    row["unix_roundtrip_ms"] = rates["roundtrip_ms"]
                    row["unix_latency"] = rates["latency"]
                    row["unix_bit_identical"] = rates["bit_identical"]

    # Shard scaling: fan the per-site batches out to n worker processes.
    requests = [(site, rss, 0.0) for site, rss in workloads.items()]
    total_frames = frames * len(workloads)
    base_qps: Optional[float] = None
    for count in shard_counts:
        with ShardedService(
            specs, shards=count, protocol=protocol, seed=seed
        ) as sharded:
            start = time.perf_counter()
            sharded.warm()
            warm_s = time.perf_counter() - start
            results = sharded.map_query_batch(requests)  # warm-up + identity
            mismatched = [
                site
                for (site, _, _), result in zip(requests, results)
                if not identical(result, reference[site])
            ]
            fanout_s = best_of(
                lambda: sharded.map_query_batch(requests), repeat
            )
            qps = total_frames / fanout_s if fanout_s > 0 else float("inf")
            if base_qps is None:
                base_qps = qps
            record["shards"][str(count)] = {
                "warm_s": warm_s,
                "fanout_batch_qps": qps,
                "scaling_x": qps / base_qps if base_qps > 0 else float("inf"),
                "bit_identical": not mismatched,
                "mismatched_sites": mismatched,
            }
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.frontend_sites is None:
        return None
    return bench_frontend(
        sites=config.frontend_sites,
        frames=config.frames,
        samples_per_cell=config.samples_per_cell,
        repeat=config.repeat,
        seed=config.seed,
        shard_counts=config.frontend_shards,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"wire front-end ({len(record['sites'])} site(s), "
        f"{record['frames']} frames/batch, "
        f"{record['singles']} single round trips):"
    )
    for site, row in record["per_site"].items():
        verdict = (
            "bit-identical"
            if row.get("http_bit_identical")
            and row.get("unix_bit_identical")
            else "MISMATCH"
        )
        latency = row.get("http_latency", {})
        lines.append(
            f"  {site:<12} in-proc {row['inproc_single_qps']:,.0f} q/s | "
            f"http {row['http_single_qps']:,.0f} q/s "
            f"(p50/p95/p99 {latency.get('p50_ms', float('nan')):.2f}/"
            f"{latency.get('p95_ms', float('nan')):.2f}/"
            f"{latency.get('p99_ms', float('nan')):.2f} ms, "
            f"{row['wire_overhead_x']:.1f}x overhead) | "
            f"unix {row['unix_single_qps']:,.0f} q/s | "
            f"http batch {row['http_batch_qps']:,.0f} q/s ({verdict})"
        )
    for count, row in record["shards"].items():
        verdict = "bit-identical" if row["bit_identical"] else "MISMATCH"
        lines.append(
            f"  shards={count}: warm {row['warm_s']:.2f}s | fan-out "
            f"{row['fanout_batch_qps']:,.0f} q/s "
            f"({row['scaling_x']:.2f}x vs 1 worker, {verdict})"
        )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    for site, row in record["per_site"].items():
        for transport in ("http", "unix"):
            if not row[f"{transport}_bit_identical"]:
                failures.append(
                    f"{transport}:{site}: wire answers differ from the "
                    "in-process service"
                )
    error = record["http_unknown_site_error"]
    if error != "KeyError":
        failures.append(
            f"http:error-contract: an unknown site raised {error}, "
            "not KeyError"
        )
    for count, row in record["shards"].items():
        for site in row["mismatched_sites"]:
            failures.append(
                f"shards={count}:{site}: fleet answers differ from the "
                "in-process service"
            )
    return failures


register(
    BenchSection(
        name="frontend",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="frontend",
    )
)
