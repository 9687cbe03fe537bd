"""The BenchSection registry: named sections over one shared driver.

Each bench section — ``solve``, ``engine``, ``serving``, ``frontend``,
``frontend_async``, ``resilience``, ``trust``, ``loadgen`` — registers:

* a ``run(config) -> record | None`` callable (``None`` = skipped, the
  historical None-skips keyword contract);
* a ``format(record) -> lines`` callable reproducing its block of the
  human-readable report **byte-for-byte** as the old monolith printed it;
* ``smoke_gates(record) -> failures``, its CI gate conditions, each
  failure string opening with the gate's name (``http:paper: ...``,
  ``resilience:resize: ...``). ``bench_perf.py --smoke --only ...`` runs
  them, and the Makefile's smoke targets partition the sections between
  them, so each gate has one implementation and runs once per CI run;
* its ``report_key`` (the JSON key — ``sizes`` for the solve section,
  the section name otherwise) and how host metadata is stamped
  (per-row for ``sizes``, per-section dict otherwise).

:func:`run_perf_bench` and :func:`format_bench_report` are thin drivers
over the insertion-ordered registry; ``only=`` filters by section name
(the ``--only`` CLI flag), and the default run emits every section in
the exact key order committed ``BENCH_PR*.json`` files use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    DEFAULT_SIZES,
    ScenarioSpec,
    host_metadata,
)

__all__ = [
    "BenchSection",
    "format_bench_report",
    "get_section",
    "register",
    "run_perf_bench",
    "section_names",
    "sections",
    "smoke_failures",
]


@dataclass(frozen=True)
class BenchSection:
    """One registered benchmark section."""

    name: str
    run: Callable[[BenchConfig], Optional[Dict[str, object]]]
    format: Callable[[Dict[str, object]], List[str]]
    smoke_gates: Callable[[Dict[str, object]], List[str]]
    report_key: str
    host_stamp: str = "section"  # "section" (record dict) or "rows"

    def __post_init__(self) -> None:
        if self.host_stamp not in ("section", "rows"):
            raise ValueError(
                f"host_stamp must be 'section' or 'rows', got {self.host_stamp!r}"
            )


_SECTIONS: Dict[str, BenchSection] = {}


def register(section: BenchSection) -> BenchSection:
    """Add a section; order of registration is report order."""
    if section.name in _SECTIONS:
        raise ValueError(f"bench section {section.name!r} already registered")
    _SECTIONS[section.name] = section
    return section


def sections() -> List[BenchSection]:
    """All registered sections, in registration (= report) order."""
    return list(_SECTIONS.values())


def section_names() -> List[str]:
    return list(_SECTIONS)


def get_section(name: str) -> BenchSection:
    try:
        return _SECTIONS[name]
    except KeyError:
        known = ", ".join(_SECTIONS) or "<none>"
        raise KeyError(
            f"unknown bench section {name!r} (registered: {known})"
        ) from None


def run_perf_bench(
    *,
    sizes: Sequence[str] = DEFAULT_SIZES,
    frames: int = 500,
    samples_per_cell: int = 10,
    repeat: int = 3,
    seed: int = BENCH_SEED,
    out_path: Optional[Union[str, Path]] = None,
    engine_jobs: Optional[int] = None,
    engine_scenario: Union[str, ScenarioSpec] = "paper",
    serving_sites: Optional[Sequence[str]] = None,
    frontend_sites: Optional[Sequence[str]] = None,
    frontend_shards: Sequence[int] = (1, 2),
    frontend_async_sites: Optional[Sequence[str]] = None,
    frontend_async_connections: Sequence[int] = (1, 2, 4),
    resilience_sites: Optional[Sequence[str]] = None,
    resilience_replicas: int = 2,
    resilience_shards: int = 3,
    trust_sites: Optional[Sequence[str]] = None,
    loadgen_sites: Optional[Sequence[str]] = None,
    loadgen_transports: Sequence[str] = ("http", "aio"),
    loadgen_shards: Sequence[int] = (1, 2),
    loadgen_slo_ms: float = 50.0,
    loadgen_requests: int = 240,
    loadgen_start_qps: float = 100.0,
    loadgen_max_qps: float = 50_000.0,
    loadgen_zipf_s: float = 1.1,
    loadgen_soak_sites: int = 0,
    loadgen_perturb: bool = True,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the registered sections; optionally write the JSON report.

    The pre-PR-10 keyword surface is preserved verbatim (``None`` on a
    section's knob skips it), with the ``loadgen_*`` knobs and ``only``
    added. ``only`` narrows the run to the named sections (order still
    comes from the registry); the default ``None`` runs everything, so
    default reports are key-for-key identical to the monolith's. Every
    section carries the host-metadata stamp (``cpu_count``, platform) —
    per size-row for ``sizes``, per section dict otherwise — so
    committed numbers stay attributable to the host that produced them.
    """
    config = BenchConfig(
        sizes=tuple(sizes),
        frames=int(frames),
        samples_per_cell=int(samples_per_cell),
        repeat=int(repeat),
        seed=int(seed),
        engine_jobs=engine_jobs,
        engine_scenario=engine_scenario,
        serving_sites=serving_sites,
        frontend_sites=frontend_sites,
        frontend_shards=tuple(frontend_shards),
        frontend_async_sites=frontend_async_sites,
        frontend_async_connections=tuple(frontend_async_connections),
        resilience_sites=resilience_sites,
        resilience_replicas=int(resilience_replicas),
        resilience_shards=int(resilience_shards),
        trust_sites=trust_sites,
        loadgen_sites=loadgen_sites,
        loadgen_transports=tuple(loadgen_transports),
        loadgen_shards=tuple(loadgen_shards),
        loadgen_slo_ms=float(loadgen_slo_ms),
        loadgen_requests=int(loadgen_requests),
        loadgen_start_qps=float(loadgen_start_qps),
        loadgen_max_qps=float(loadgen_max_qps),
        loadgen_zipf_s=float(loadgen_zipf_s),
        loadgen_soak_sites=int(loadgen_soak_sites),
        loadgen_perturb=bool(loadgen_perturb),
    )
    if only is not None:
        unknown = [name for name in only if name not in _SECTIONS]
        if unknown:
            known = ", ".join(_SECTIONS)
            raise ValueError(
                f"unknown bench section(s) {unknown} (registered: {known})"
            )
    host = host_metadata()
    report: Dict[str, object] = {
        "benchmark": "bench_perf",
        "seed": int(seed),
        "environment": dict(host, numpy=np.__version__),
    }
    for section in _SECTIONS.values():
        if only is not None and section.name not in only:
            continue
        record = section.run(config)
        if record is None:
            continue
        report[section.report_key] = record
    # Stamp host facts into every section (satellite of PR-8): each
    # section may end up compared across machines, so each carries its
    # own provenance, not just the top-level environment.
    for section in _SECTIONS.values():
        record = report.get(section.report_key)
        if record is None:
            continue
        if section.host_stamp == "rows":
            for row in record.values():
                row["host"] = dict(host)
        else:
            record["host"] = dict(host)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_bench_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_perf_bench` report."""
    lines = ["bench_perf: fast vs reference wall time (best-of runs)"]
    for section in _SECTIONS.values():
        if section.report_key not in report:
            continue
        record = report[section.report_key]
        # The solve table prints its header even for an empty run; the
        # optional sections print nothing when empty (the monolith's
        # truthiness contract).
        if not record and section.name != "solve":
            continue
        lines.extend(section.format(record))
    return "\n".join(lines)


def smoke_failures(report: Dict[str, object]) -> List[str]:
    """Every registered smoke-gate failure in ``report`` (empty = pass).

    Sections absent from the report are skipped — a smoke run gates only
    what it measured.
    """
    failures: List[str] = []
    for section in _SECTIONS.values():
        record = report.get(section.report_key)
        if not record:
            continue
        failures.extend(section.smoke_gates(record))
    return failures
