"""The ``serving`` bench section: the multi-site in-process service."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import TafLoc
from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    DEFAULT_SIZES,
    bench_spec,
    best_of,
)
from repro.eval.bench.registry import BenchSection, register
from repro.eval.engine import cached_scenario
from repro.serve import (
    LocalizationService,
    pipeline_seed,
    reconstructor_seed,
)
from repro.sim.collector import CollectionProtocol, RssCollector
from repro.sim.specs import build_scenario
from repro.util.rng import counter_stream, task_key

__all__ = ["bench_serving"]


def bench_serving(
    *,
    sites: Sequence[str] = DEFAULT_SIZES,
    frames: int = 500,
    samples_per_cell: int = 10,
    repeat: int = 3,
    seed: int = BENCH_SEED,
) -> Dict[str, object]:
    """Benchmark the multi-site serving layer (queries/sec).

    One :class:`~repro.serve.service.LocalizationService` holds every site.
    Per site:

    * ``cold_first_query_s`` — a fresh service answering its first query:
      pipeline materialization + commissioning survey + matcher build.
    * ``warm_batch_qps`` / ``warm_single_qps`` — steady-state throughput of
      the batch entry point and of the per-query path (which rides the
      epoch-keyed matcher cache).
    * ``rebuild_single_qps`` — the per-query path with
      ``matcher_for_day(refresh=True)``, i.e. the pre-PR4 behavior of
      rebuilding the matcher on every call; ``matcher_cache_speedup`` is
      what the cache bugfix buys on the warm single-query path.
    * ``bit_identical`` — service answers equal a standalone
      :class:`~repro.core.pipeline.TafLoc` built with the same derived
      seeds (:func:`repro.serve.manager.pipeline_seed` /
      :func:`~repro.serve.manager.reconstructor_seed`).

    ``multi_site`` then measures one process serving *all* sites: a
    round-robin single-query mix and per-site batches back to back.
    """
    protocol = CollectionProtocol(
        samples_per_cell=samples_per_cell, empty_room_samples=10
    )
    specs = {name: bench_spec(name) for name in sites}
    service = LocalizationService.from_specs(
        specs, protocol=protocol, seed=seed
    )
    record: Dict[str, object] = {
        "sites": list(sites),
        "frames": int(frames),
        "samples_per_cell": int(samples_per_cell),
        "per_site": {},
    }
    traces = {}
    for index, (site, spec) in enumerate(specs.items()):
        # Cold start: a fresh single-site service timed through its first
        # query (materialize + commission + matcher build).
        fresh = LocalizationService.from_specs(
            {site: spec}, protocol=protocol, seed=seed
        )
        scenario = cached_scenario(spec, build_scenario)
        workload_cells = counter_stream(seed, 100 + index).integers(
            0, scenario.deployment.cell_count, size=frames
        )
        trace = RssCollector(
            scenario, protocol, seed=task_key(seed, "serving-workload", site)
        ).live_trace(0.0, workload_cells)
        traces[site] = trace
        start = time.perf_counter()
        fresh.query(site, trace.rss[0], 0.0)
        cold_first_query_s = time.perf_counter() - start

        service.warm([site])
        system = service.pipeline(site)
        direct = TafLoc(
            RssCollector(
                cached_scenario(spec, build_scenario),
                protocol,
                seed=pipeline_seed(spec, seed),
            ),
            seed=reconstructor_seed(spec, seed),
        )
        direct.commission(0.0)
        served = service.query_batch(site, trace.rss, 0.0)
        reference = direct.localize_trace(trace)
        bit_identical = bool(
            np.array_equal(served.cells, reference.cells)
            and np.array_equal(served.positions, reference.positions)
        )

        batch_s = best_of(
            lambda: service.query_batch(site, trace.rss, 0.0), repeat
        )
        singles = trace.rss[: min(frames, 200)]
        single_s = best_of(
            lambda: [service.query(site, frame, 0.0) for frame in singles],
            repeat,
        )
        rebuild_s = best_of(
            lambda: [
                system.matcher_for_day(0.0, refresh=True).match(frame)
                for frame in singles
            ],
            repeat,
        )
        record["per_site"][site] = {
            "scenario": spec.name,
            "links": scenario.deployment.link_count,
            "cells": scenario.deployment.cell_count,
            "cold_first_query_s": cold_first_query_s,
            "warm_batch_qps": frames / batch_s if batch_s > 0 else float("inf"),
            "warm_single_qps": (
                len(singles) / single_s if single_s > 0 else float("inf")
            ),
            "rebuild_single_qps": (
                len(singles) / rebuild_s if rebuild_s > 0 else float("inf")
            ),
            "matcher_cache_speedup": (
                rebuild_s / single_s if single_s > 0 else float("inf")
            ),
            "bit_identical": bit_identical,
        }

    # One process, every site: round-robin singles and back-to-back batches.
    site_list = list(specs)
    mix = []
    for index in range(min(frames, 200)):
        site = site_list[index % len(site_list)]
        trace = traces[site]
        mix.append((site, trace.rss[index % trace.frame_count]))
    mixed_s = best_of(
        lambda: [service.query(site, frame, 0.0) for site, frame in mix],
        repeat,
    )
    batches_s = best_of(
        lambda: [
            service.query_batch(site, traces[site].rss, 0.0)
            for site in site_list
        ],
        repeat,
    )
    total_frames = sum(traces[site].frame_count for site in site_list)
    record["multi_site"] = {
        "interleaved_single_qps": (
            len(mix) / mixed_s if mixed_s > 0 else float("inf")
        ),
        "batch_qps": total_frames / batches_s if batches_s > 0 else float("inf"),
        "pipelines_built": service.manager.stats.pipelines_built,
    }
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.serving_sites is None:
        return None
    return bench_serving(
        sites=config.serving_sites,
        frames=config.frames,
        samples_per_cell=config.samples_per_cell,
        repeat=config.repeat,
        seed=config.seed,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"serving layer ({len(record['sites'])} site(s), "
        f"{record['frames']} frames/site, warm queries/sec):"
    )
    for site, row in record["per_site"].items():
        identical = "bit-identical" if row["bit_identical"] else "MISMATCH"
        lines.append(
            f"  {site:<12} cold {row['cold_first_query_s']:.2f}s | "
            f"batch {row['warm_batch_qps']:,.0f} q/s | "
            f"single {row['warm_single_qps']:,.0f} q/s "
            f"(rebuild {row['rebuild_single_qps']:,.0f} q/s, "
            f"cache {row['matcher_cache_speedup']:.1f}x, {identical})"
        )
    multi = record["multi_site"]
    lines.append(
        f"  all sites, one process: interleaved "
        f"{multi['interleaved_single_qps']:,.0f} q/s | batch "
        f"{multi['batch_qps']:,.0f} q/s "
        f"({multi['pipelines_built']} pipeline(s) built)"
    )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    return [
        f"serving:{site}: answers differ from direct TafLoc calls"
        for site, row in record["per_site"].items()
        if not row["bit_identical"]
    ]


register(
    BenchSection(
        name="serving",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="serving",
    )
)
