"""Seeded inputs: arrival schedules, site mixes and simulator frames.

Everything here is a pure function of ``seed`` (plus fixed workload
constants), so the same seed rebuilds bit-identical schedules and inputs.
Frames come from :meth:`repro.sim.collector.RssCollector.live_trace` on a
collector seeded by the benchmark, so every frame carries the position
the simulated person really stood at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: Sites of the wire workloads, most popular first (Zipf rank order).
WIRE_SITES = ("paper", "square-6m", "square-12m", "square-20m")
#: Large-cell sites of ``inproc-trace`` (400 and 1,089 cells).
TRACE_SITES = ("square-12m", "square-20m")
ZIPF_S = 1.1
#: Manager seed of every service the benchmark builds. The program's
#: world stays fixed; only the traffic varies with the workload seed.
MANAGER_SEED = 0

# Stream ids keep the purposes of one seed independent of each other.
_ARRIVALS, _SITES, _POOL, _LENGTHS, _ORDER, _PICKS = range(6)


def stream(seed: int, purpose: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), purpose, *key])


def _collector_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([int(seed), _POOL, *key]).generate_state(1)[0])


def poisson_offsets(seed: int, rate: float, seconds: float, key: int = 0) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    rng = stream(seed, _ARRIVALS, key, int(rate * 1000))
    expected = int(rate * seconds * 1.2) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < seconds]


def zipf_sites(seed: int, count: int, sites: int, key: int = 0) -> np.ndarray:
    """``count`` site indices with P(rank k) proportional to 1 / k**ZIPF_S."""
    weights = 1.0 / np.arange(1, sites + 1) ** ZIPF_S
    rng = stream(seed, _SITES, key, count)
    return rng.choice(sites, size=count, p=weights / weights.sum())


def pool_picks(seed: int, count: int, pool: int, key: int = 0) -> np.ndarray:
    """Which pool frame each request sends."""
    return stream(seed, _PICKS, key, count).integers(0, pool, size=count)


@dataclass(frozen=True)
class FramePool:
    """Live frames of one site on one day, with ground truth."""

    site: str
    day: float
    rss: np.ndarray
    true_positions: np.ndarray


def frame_pool(seed: int, site: str, day: float, frames: int, key: int = 0):
    """``frames`` live frames at uniformly drawn cells of ``site``."""
    from repro.eval.engine import cached_scenario
    from repro.sim.collector import CollectionProtocol, RssCollector
    from repro.sim.specs import build_scenario, get_scenario_spec

    scenario = cached_scenario(get_scenario_spec(site), build_scenario)
    index = WIRE_SITES.index(site) if site in WIRE_SITES else len(WIRE_SITES)
    collector = RssCollector(
        scenario,
        CollectionProtocol(),
        seed=_collector_seed(seed, index, key, int(day * 1000)),
    )
    # Every cell equally often (to within one), in a seeded order, so the
    # pool's error and cost mix barely depends on the seed.
    rng = stream(seed, _POOL, index, key, int(day * 1000))
    cells = np.resize(rng.permutation(scenario.deployment.cell_count), frames)
    cells = rng.permutation(cells)
    trace = collector.live_trace(day, cells)
    return FramePool(site, day, trace.rss, trace.true_positions)


def trace_lengths(seed: int, count: int, low: int = 16, high: int = 1024) -> np.ndarray:
    """Log-uniform trace lengths in ``[low, high]``, stratified: one draw in
    each of ``count`` equal slices of the log range, so every seed gets
    the same spread of short and long traces."""
    rng = stream(seed, _LENGTHS, count)
    slices = (np.arange(count) + rng.uniform(size=count)) / count
    logs = np.log(low) + slices * (np.log(high) - np.log(low))
    return np.rint(np.exp(logs)).astype(int)


def trace_pool(
    seed: int, sites: Sequence[str], per_site: int, day: float
) -> List[FramePool]:
    """``per_site`` traces per site, in a seeded order."""
    lengths = trace_lengths(seed, per_site * len(sites))
    traces = [
        frame_pool(
            seed, sites[number % len(sites)], day, int(length), key=1000 + number
        )
        for number, length in enumerate(lengths)
    ]
    order = stream(seed, _ORDER, len(traces)).permutation(len(traces))
    return [traces[index] for index in order]


def open_loop_plan(
    seed: int, rate: float, seconds: float, sites: int, pool: int, key: int = 0
) -> Dict[str, np.ndarray]:
    """Planned send offsets plus the site and pool frame of each request."""
    offsets = poisson_offsets(seed, rate, seconds, key)
    return {
        "offsets": offsets,
        "sites": zipf_sites(seed, offsets.size, sites, key),
        "picks": pool_picks(seed, offsets.size, pool, key),
    }
