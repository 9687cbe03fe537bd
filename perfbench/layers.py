"""The program's layers as the traced run sees them.

Each entry wraps one public callable where its caller looks it up. The
asyncio front-end imports ``decode``, ``dispatch`` and ``encode`` into
:mod:`repro.serve.aio` by name, so those are wrapped there and not in
:mod:`repro.serve.protocol`; methods are wrapped on their class, which is
where every instance looks them up. Shard workers fork from the traced
server process, so they inherit the wrappers.

:func:`per_layer_metrics` turns merged span summaries plus the run's own
process measurements into the metric names listed in ``BENCHMARK.json``.
A layer the workload does not run reads 0.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Optional, Tuple

from spans import Tracer


def _one(args, kwargs, result) -> Tuple[int, None]:
    return 1, None


def _result_frames(args, kwargs, result) -> Tuple[int, None]:
    return int(result.frame_count), None


def _dispatch_frames(args, kwargs, result) -> Tuple[int, None]:
    method, params = args[1], args[2] or {}
    if method == "query":
        return 1, None
    frames = params.get("frames") if isinstance(params, dict) else None
    return (len(frames) if frames is not None else 0), None


def _match(args, kwargs, result) -> Tuple[int, Dict[str, float]]:
    matcher, frames = args[0], int(result.frame_count)
    links = matcher.fingerprint.link_count
    cells = matcher.fingerprint.cell_count
    # Operation count of the distance GEMM and bytes of the arrays it
    # touches (frames, templates, distance matrix), from their sizes.
    return frames, {
        "flops": 2.0 * links * cells * frames,
        "bytes": 8.0 * (frames * links + links * cells + frames * cells),
    }


def _solve(args, kwargs, result) -> Tuple[int, Dict[str, float]]:
    return 0, {
        "outer": int(result.iterations),
        "inner": int(result.inner_iterations.sum()),
    }


def _survey(args, kwargs, result) -> Tuple[int, Dict[str, float]]:
    return 0, {"samples": int(result.samples_taken)}


def _empty_room(args, kwargs, result) -> Tuple[int, Dict[str, float]]:
    return 0, {"samples": int(args[0].protocol.empty_room_samples)}


def _epochs(args, kwargs, result) -> Tuple[int, Dict[str, float]]:
    return 0, {"max_epochs": int(args[0].epoch_count)}


#: (module, attribute path, span name, describe) for the server side.
SERVER_TARGETS = (
    ("repro.serve.aio", "decode", "protocol.decode", None),
    ("repro.serve.aio", "dispatch", "protocol.dispatch", _dispatch_frames),
    ("repro.serve.aio", "encode", "protocol.encode", None),
    ("repro.serve.service", "LocalizationService.query", "service.query", _one),
    (
        "repro.serve.service",
        "LocalizationService.query_batch",
        "service.query_batch",
        _result_frames,
    ),
    (
        "repro.serve.service",
        "LocalizationService.query_trace",
        "service.query_trace",
        _result_frames,
    ),
    ("repro.serve.service", "LocalizationService.update", "service.update", None),
    ("repro.serve.shard", "ShardedService.query", "shard.query", _one),
    ("repro.serve.shard", "ShardedService.update", "shard.update", None),
    ("repro.serve.manager", "SiteManager.pipeline", "manager.pipeline", None),
    ("repro.serve.manager", "SiteManager.update", "manager.update", None),
    ("repro.core.pipeline", "TafLoc.matcher_for_day", "pipeline.matcher_for_day", None),
    ("repro.core.pipeline", "TafLoc.localize", "pipeline.localize", _one),
    (
        "repro.core.pipeline",
        "TafLoc.localize_batch",
        "pipeline.localize_batch",
        _result_frames,
    ),
    (
        "repro.core.pipeline",
        "TafLoc.localize_trace",
        "pipeline.localize_trace",
        _result_frames,
    ),
    ("repro.core.pipeline", "TafLoc.update", "pipeline.update", None),
    ("repro.core.matching", "KnnMatcher.__init__", "matching.build", None),
    ("repro.core.matching", "KnnMatcher.match_batch", "matching.match_batch", _match),
    (
        "repro.core.reconstruction",
        "Reconstructor.reconstruct",
        "reconstruction.reconstruct",
        None,
    ),
    ("repro.core.loli_ir", "LoliIrSolver.solve", "loli_ir.solve", _solve),
    (
        "repro.sim.collector",
        "RssCollector.collect_survey",
        "collector.collect_survey",
        _survey,
    ),
    (
        "repro.sim.collector",
        "RssCollector.collect_empty_room",
        "collector.collect_empty_room",
        _empty_room,
    ),
    ("repro.core.fingerprint", "FingerprintDatabase.at", "fingerprint.at", _epochs),
    ("repro.core.fingerprint", "FingerprintDatabase.add", "fingerprint.add", _epochs),
)


def _call_frames(args, kwargs, result) -> Tuple[int, None]:
    method, params = args[1], (args[2] if len(args) > 2 else kwargs.get("params")) or {}
    if method == "query":
        return 1, None
    if method == "query_batch":
        return len(params.get("frames", ())), None
    return 0, None


#: Coroutine methods of the asyncio client (generator process).
CLIENT_TARGETS = (
    ("repro.serve.aio", "AsyncServiceClient.query", "client.query", None),
    ("repro.serve.aio", "AsyncServiceClient.update", "client.update", None),
    ("repro.serve.aio", "AsyncServiceClient.call", "client.call", _call_frames),
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(tracer: Tracer, targets) -> None:
    for module, path, name, describe in targets:
        owner, attr = _resolve(module, path)
        tracer.wrap(owner, attr, name, describe)


# ----------------------------------------------------------------------
# metric derivation
# ----------------------------------------------------------------------
#: Per-layer metric names and units, in BENCHMARK.json order.
PER_LAYER = (
    ("gen.late_p99_ms", "ms"),
    ("gen.cpu_us_per_query", "us"),
    ("client.calls", "count"),
    ("client.wall_us_p50", "us"),
    ("client.frames_per_wire_call", "count"),
    ("frontend.cpu_us_per_query", "us"),
    ("frontend.rss_mb", "MB"),
    ("protocol.decode.self_us", "us"),
    ("protocol.dispatch.self_us", "us"),
    ("protocol.encode.self_us", "us"),
    ("protocol.frames_per_dispatch", "count"),
    ("service.query.calls", "count"),
    ("service.query.self_us", "us"),
    ("service.query_batch.calls", "count"),
    ("service.query_batch.self_us", "us"),
    ("service.query_trace.calls", "count"),
    ("service.query_trace.self_us", "us"),
    ("service.update.calls", "count"),
    ("service.update.self_us", "us"),
    ("shard.hop_us", "us"),
    ("shard.worker_cpu_us_per_query", "us"),
    ("shard.failovers", "count"),
    ("shard.timeouts", "count"),
    ("shard.respawns", "count"),
    ("manager.pipeline.self_us", "us"),
    ("manager.update.self_ms", "ms"),
    ("pipeline.matcher_builds", "count"),
    ("pipeline.matcher_hit_ratio", "ratio"),
    ("pipeline.update.self_ms", "ms"),
    ("matching.us_per_frame", "us"),
    ("matching.frames_per_call", "count"),
    ("matching.flops_per_frame", "flop"),
    ("matching.bytes_per_frame", "B"),
    ("reconstruction.self_ms", "ms"),
    ("loli_ir.solve_ms", "ms"),
    ("loli_ir.outer_iterations", "count"),
    ("loli_ir.inner_iterations", "count"),
    ("collector.self_ms", "ms"),
    ("collector.samples_per_update", "count"),
    ("fingerprint.at.self_us", "us"),
    ("fingerprint.epochs", "count"),
    ("trace.spans", "count"),
    ("trace.errors", "count"),
    ("trace.overhead_cpu_us_per_frame", "us"),
    ("trace.overhead_p50_ms", "ms"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    summary: Dict[str, Dict[str, float]],
    measured: Dict[str, Optional[float]],
) -> Dict[str, float]:
    """Metric values from merged span ``summary`` and process ``measured``.

    ``measured`` carries what the spans cannot: generator lateness and
    CPU, per-process CPU and RSS, router counters and tracing overhead,
    keyed by metric name (``None`` or absent reads 0).
    """

    def row(name: str) -> Dict[str, float]:
        return summary.get(name, {})

    def calls(name: str) -> float:
        return row(name).get("calls", 0)

    def self_per_call(name: str, scale: float) -> float:
        return _ratio(row(name).get("self_ns", 0) / scale, calls(name))

    out = {name: float(measured.get(name) or 0.0) for name, _ in PER_LAYER}
    out["client.calls"] = calls("client.query") + calls("client.update")
    out["client.wall_us_p50"] = row("client.query").get("wall_p50_ns", 0) / 1e3
    out["client.frames_per_wire_call"] = _ratio(
        row("client.call").get("frames", 0), calls("client.call")
    )
    for part in ("decode", "dispatch", "encode"):
        out[f"protocol.{part}.self_us"] = self_per_call(f"protocol.{part}", 1e3)
    out["protocol.frames_per_dispatch"] = _ratio(
        row("protocol.dispatch").get("frames", 0), calls("protocol.dispatch")
    )
    for method in ("query", "query_batch", "query_trace", "update"):
        out[f"service.{method}.calls"] = calls(f"service.{method}")
        out[f"service.{method}.self_us"] = self_per_call(f"service.{method}", 1e3)
    # Router wall minus the worker's service wall for the same queries:
    # pipe, pickling and routing cost of one sharded hop.
    router_ns = row("shard.query").get("wall_ns", 0)
    hop_ns = router_ns - row("service.query").get("wall_ns", 0)
    out["shard.hop_us"] = _ratio(hop_ns / 1e3, calls("shard.query"))
    out["manager.pipeline.self_us"] = self_per_call("manager.pipeline", 1e3)
    out["manager.update.self_ms"] = self_per_call("manager.update", 1e6)
    builds = calls("matching.build")
    out["pipeline.matcher_builds"] = builds
    lookups = calls("pipeline.matcher_for_day")
    out["pipeline.matcher_hit_ratio"] = _ratio(lookups - builds, lookups)
    out["pipeline.update.self_ms"] = self_per_call("pipeline.update", 1e6)
    match = row("matching.match_batch")
    frames = match.get("frames", 0)
    out["matching.us_per_frame"] = _ratio(match.get("self_ns", 0) / 1e3, frames)
    out["matching.frames_per_call"] = _ratio(frames, calls("matching.match_batch"))
    out["matching.flops_per_frame"] = _ratio(match.get("flops", 0), frames)
    out["matching.bytes_per_frame"] = _ratio(match.get("bytes", 0), frames)
    out["reconstruction.self_ms"] = self_per_call("reconstruction.reconstruct", 1e6)
    solves = calls("loli_ir.solve")
    solve = row("loli_ir.solve")
    out["loli_ir.solve_ms"] = _ratio(solve.get("wall_ns", 0) / 1e6, solves)
    out["loli_ir.outer_iterations"] = _ratio(solve.get("outer", 0), solves)
    out["loli_ir.inner_iterations"] = _ratio(solve.get("inner", 0), solves)
    collector = ("collector.collect_survey", "collector.collect_empty_room")
    out["collector.self_ms"] = _ratio(
        sum(row(name).get("self_ns", 0) for name in collector) / 1e6,
        sum(calls(name) for name in collector),
    )
    out["collector.samples_per_update"] = _ratio(
        sum(row(name).get("samples", 0) for name in collector),
        calls("pipeline.update"),
    )
    out["fingerprint.at.self_us"] = self_per_call("fingerprint.at", 1e3)
    out["fingerprint.epochs"] = float(
        max(
            row(name).get("max_epochs", 0)
            for name in ("fingerprint.at", "fingerprint.add")
        )
    )
    out["trace.spans"] = float(sum(r.get("calls", 0) for r in summary.values()))
    out["trace.errors"] = float(sum(r.get("errors", 0) for r in summary.values()))
    return out
