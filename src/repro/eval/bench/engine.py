"""The ``engine`` bench section: figure experiments through the engine."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.pipeline import TafLocConfig
from repro.core.reconstruction import ReconstructionConfig
from repro.eval.bench.common import (
    BENCH_SEED,
    BenchConfig,
    LEGACY_SOLVER,
)
from repro.eval.bench.registry import BenchSection, register
from repro.eval.engine import ExperimentEngine
from repro.eval.experiments import (
    run_fig3_reconstruction_error,
    run_fig5_localization,
)
from repro.sim.specs import ScenarioSpec

__all__ = ["bench_engine"]


def _fig3_identical(a, b) -> bool:
    return all(
        x.day == y.day
        and np.array_equal(x.errors, y.errors)
        and x.mean_error == y.mean_error
        and x.stale_mean_error == y.stale_mean_error
        and x.oracle_mean_error == y.oracle_mean_error
        for x, y in zip(a, b)
    )


def _fig5_identical(a, b) -> bool:
    return set(a.errors) == set(b.errors) and all(
        np.array_equal(a.errors[name], b.errors[name]) for name in a.errors
    )


def bench_engine(
    *,
    jobs: int = 2,
    seed: int = BENCH_SEED,
    fig3_days: Sequence[float] = (3.0, 15.0, 45.0, 90.0),
    fig5_day: float = 90.0,
    scenario: Union[str, ScenarioSpec] = "paper",
) -> Dict[str, object]:
    """Benchmark the figure experiments end-to-end through the engine.

    Three configurations per figure, on ``scenario`` (a registry name or a
    :class:`~repro.sim.specs.ScenarioSpec`, e.g. one loaded from a user's
    ``--scenario-file``):

    * ``legacy_s`` — the PR-1 code path: matrix-free CG solver, serial loop.
    * ``serial_s`` — fast solver, engine with ``jobs=1``.
    * ``parallel_s`` — fast solver, engine with ``jobs`` workers. One
      persistent engine serves *both* figures, so the pool starts once and
      the second figure measures the amortized regime; on a single-core
      host this is serial time plus residual overhead, on a multi-core
      host it scales with the core count.

    ``speedup`` is what a PR-1 user gains by upgrading and passing
    ``--jobs``: ``legacy_s / parallel_s``. ``bit_identical`` asserts the
    acceptance contract that parallel results equal serial results exactly.
    Caching is disabled so every configuration does full work.
    """
    legacy_config = TafLocConfig(
        reconstruction=ReconstructionConfig(solver=LEGACY_SOLVER)
    )

    def run_fig3(engine, config=None):
        return run_fig3_reconstruction_error(
            days=fig3_days, seed=seed, config=config, engine=engine,
            scenario_spec=scenario,
        )

    def run_fig5(engine, config=None):
        return run_fig5_localization(
            day=fig5_day, seed=seed, config=config, engine=engine,
            scenario_spec=scenario,
        )

    scenario_name = (
        scenario if isinstance(scenario, str) else scenario.name
    )
    record: Dict[str, object] = {"jobs": int(jobs), "scenario": scenario_name}
    with ExperimentEngine(jobs=jobs, cache=False) as parallel_engine:
        for name, runner, legacy_kwargs, identical in (
            ("fig3", run_fig3, {"config": legacy_config}, _fig3_identical),
            ("fig5", run_fig5, {"config": legacy_config}, _fig5_identical),
        ):
            start = time.perf_counter()
            runner(ExperimentEngine(jobs=1, cache=False), **legacy_kwargs)
            legacy_s = time.perf_counter() - start
            start = time.perf_counter()
            serial = runner(ExperimentEngine(jobs=1, cache=False))
            serial_s = time.perf_counter() - start
            start = time.perf_counter()
            parallel = runner(parallel_engine)
            parallel_s = time.perf_counter() - start
            record[name] = {
                "legacy_s": legacy_s,
                "serial_s": serial_s,
                "parallel_s": parallel_s,
                "speedup": legacy_s / parallel_s if parallel_s > 0 else float("inf"),
                "bit_identical": bool(identical(serial, parallel)),
            }
        record["pools_created"] = parallel_engine.stats.pools_created
    return record


def _run(config: BenchConfig) -> Optional[Dict[str, object]]:
    if config.engine_jobs is None:
        return None
    return bench_engine(
        jobs=config.engine_jobs,
        seed=config.seed,
        scenario=config.engine_scenario,
    )


def _format(record: Dict[str, object]) -> List[str]:
    lines = [""]
    lines.append(
        f"figure experiments through the engine (jobs={record['jobs']}, "
        f"scenario={record.get('scenario', 'paper')}, one shared pool):"
    )
    for name in ("fig3", "fig5"):
        row = record[name]
        identical = "bit-identical" if row["bit_identical"] else "MISMATCH"
        lines.append(
            f"  {name}: legacy {row['legacy_s']:.2f}s -> serial "
            f"{row['serial_s']:.2f}s -> parallel {row['parallel_s']:.2f}s "
            f"({row['speedup']:.1f}x vs legacy, {identical})"
        )
    return lines


def _smoke_gates(record: Dict[str, object]) -> List[str]:
    return [
        f"engine:{figure}: parallel results differ from serial"
        for figure in ("fig3", "fig5")
        if not record[figure]["bit_identical"]
    ]


register(
    BenchSection(
        name="engine",
        run=_run,
        format=_format,
        smoke_gates=_smoke_gates,
        report_key="engine",
    )
)
