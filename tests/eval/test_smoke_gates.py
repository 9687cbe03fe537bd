"""The CI smoke gates: one implementation each, every section covered.

Every CI smoke gate is a named condition in a registered section's
``smoke_gates``, run by ``benchmarks/bench_perf.py --smoke --only ...``.
These tests pin three things: the Makefile's four smoke targets cover
each registered section exactly once; every named condition reports
its failure when a real section record has exactly that condition
broken; and the shared workload builder keeps each section's query
workload bit-identical.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval.bench import (
    bench_frontend,
    bench_frontend_async,
    bench_loadgen,
    bench_resilience,
    bench_trust,
    get_section,
    section_names,
)
from repro.eval.bench import common

ROOT = Path(__file__).resolve().parents[2]
SMOKE_TARGETS = (
    "bench-smoke",
    "frontend-smoke",
    "resilience-smoke",
    "loadgen-smoke",
)
TWO = ("square-3m", "square-4m")


def _recipe(makefile: str, target: str) -> str:
    match = re.search(
        rf"^{re.escape(target)}:[^\n]*\n((?:\t[^\n]*\n)+)", makefile, re.M
    )
    assert match, f"no recipe for {target}"
    return match.group(1).replace("\\\n", " ")


def test_ci_smoke_targets_partition_the_registry():
    makefile = (ROOT / "Makefile").read_text()
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    selections = {}
    for target in SMOKE_TARGETS:
        recipe = _recipe(makefile, target)
        assert "benchmarks/bench_perf.py --smoke" in recipe, target
        selections[target] = set(re.findall(r"--only\s+(\S+)", recipe))
        assert selections[target], f"{target} selects no section"
        assert f"make {target}" in workflow, f"CI never runs {target}"
    covered = [name for names in selections.values() for name in names]
    assert len(covered) == len(set(covered)), selections  # disjoint
    assert set(covered) == set(section_names())


# ----------------------------------------------------------------------
# every named gate condition reports its failure
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def records():
    return {
        "frontend": bench_frontend(
            sites=("square-3m",),
            frames=8,
            samples_per_cell=2,
            repeat=1,
            shard_counts=(1, 2),
            singles=4,
        ),
        # Frames fill most of a 32-frame stream chunk, as in the smoke
        # run, so the short trace's peak message is chunk-sized too.
        "frontend_async": bench_frontend_async(
            sites=("square-3m",),
            frames=24,
            samples_per_cell=2,
            repeat=1,
            connections=(1,),
            singles=4,
        ),
        "resilience": bench_resilience(
            sites=TWO, shards=2, frames=8, operations=4
        ),
        "trust": bench_trust(sites=TWO, frames=8, operations=4, soak_days=3),
    }


def _set(*path):
    """Mutation setting ``record[path[0]]...[path[-2]] = path[-1]``."""

    def mutate(record):
        target = record
        for key in path[:-2]:
            target = target[key]
        target[path[-2]] = path[-1]

    return mutate


def _kill(shard, key, value):
    """Mutation of the kill phase of ``shard`` (kills run in seed order)."""

    def mutate(record):
        for kill in record["kills"]:
            if shard is None or kill["shard"] == shard:
                kill[key] = value

    return mutate


def _short_trace_differs(record):
    lengths = record["trace_streaming"]["lengths"]
    lengths[min(lengths, key=int)]["bit_identical"] = False


SITE = "square-3m"
FIRST = "site-square-3m"

#: (section, gate, mutation breaking exactly that gate's condition)
BROKEN = [
    ("frontend", f"http:{SITE}", _set("per_site", SITE, "http_bit_identical", False)),
    ("frontend", f"unix:{SITE}", _set("per_site", SITE, "unix_bit_identical", False)),
    ("frontend", "http:error-contract", _set("http_unknown_site_error", None)),
    ("frontend", f"shards=1:{SITE}", _set("shards", "1", "mismatched_sites", [SITE])),
    ("frontend", f"shards=2:{SITE}", _set("shards", "2", "mismatched_sites", [SITE])),
    (
        "frontend_async",
        f"aio:{SITE}",
        _set("per_site", SITE, "aio_batch_bit_identical", False),
    ),
    ("frontend_async", "aio:error-contract", _set("aio_unknown_site_error", "OSError")),
    (
        "frontend_async",
        f"aio-pipelined:{SITE}",
        _set("per_site", SITE, "bit_identical", False),
    ),
    ("frontend_async", f"aio-stream-trace:{SITE}", _short_trace_differs),
    (
        "frontend_async",
        f"aio-stream-trace:{SITE}",
        _set("trace_streaming", "buffering_flat", False),
    ),
    ("resilience", "resilience:before-kill", _set("before", "failed_queries", 1)),
    ("resilience", "resilience:kill-shard-0", _kill(0, "failed_queries", 1)),
    ("resilience", "resilience:kill-shard-1", _kill(1, "mismatched_queries", 2)),
    ("resilience", "resilience:kill-shard-0", _kill(0, "recovered", False)),
    ("resilience", "resilience:snapshot-warm-0", _kill(0, "snapshots_restored", 0)),
    ("resilience", "resilience:snapshot-warm-1", _kill(1, "snapshots_restored", 0)),
    (
        "resilience",
        "resilience:post-recovery-identity",
        _set("after", "mismatched_queries", 1),
    ),
    (
        "resilience",
        "resilience:post-recovery-identity",
        _set("after_fanout_mismatched_sites", [FIRST]),
    ),
    ("resilience", "resilience:resize", _set("resize", "mismatched_queries", 1)),
    ("resilience", "resilience:resize", _set("resize", "failed_queries", 1)),
    (
        "resilience",
        "resilience:snapshot-restart-identity",
        _set("snapshot_warm_bit_identical", False),
    ),
    (
        "trust",
        "trust:quorum-read-repair",
        _set("corruption_episode", "mismatched_queries", 1),
    ),
    (
        "trust",
        "trust:quorum-read-repair",
        _set("corruption_episode", "failed_queries", 1),
    ),
    (
        "trust",
        "trust:quorum-read-repair",
        _set("corruption_episode", "read_divergences", 0),
    ),
    ("trust", "trust:quorum-read-repair", _set("corruption_episode", "quarantines", 0)),
    ("trust", "trust:quorum-read-repair", _set("corruption_episode", "repairs", 0)),
    (
        "trust",
        "trust:scrub-clean-after-repair",
        _set("scrub", "divergent_sites", [FIRST]),
    ),
    ("trust", "trust:scrub-clean-after-repair", _set("scrub", "quarantined", 1)),
    (
        "trust",
        "trust:scrub-detects-silent-corruption",
        _set("silent_corruption", "divergent_sites", []),
    ),
    (
        "trust",
        "trust:scrub-detects-silent-corruption",
        _set("silent_corruption", "repaired", 0),
    ),
    (
        "trust",
        "trust:post-scrub-identity",
        _set("silent_corruption", "after", "mismatched_queries", 1),
    ),
    ("trust", "trust:degraded-stale-answer", _set("degraded", "stale", False)),
    ("trust", "trust:degraded-stale-answer", _set("degraded", "bit_identical", False)),
    ("trust", "trust:snapshot-retention", _set("snapshot_soak", "files_pruned", 0)),
    ("trust", "trust:snapshot-retention", _set("snapshot_soak", "bounded", False)),
]


@pytest.mark.parametrize(
    "section", ["frontend", "frontend_async", "resilience", "trust"]
)
def test_real_records_pass_every_gate(records, section):
    assert get_section(section).smoke_gates(records[section]) == []


@pytest.mark.parametrize(
    "section, gate, mutate",
    BROKEN,
    ids=[f"{gate}-{index}" for index, (_, gate, _) in enumerate(BROKEN)],
)
def test_one_broken_condition_fails_its_named_gate(
    records, section, gate, mutate
):
    record = copy.deepcopy(records[section])
    mutate(record)
    failures = get_section(section).smoke_gates(record)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{gate}: "), failures


def test_kill_gates_cover_every_shard(records):
    resilience = records["resilience"]
    assert sorted(kill["shard"] for kill in resilience["kills"]) == [0, 1]
    record = copy.deepcopy(resilience)
    _kill(None, "recovered", False)(record)
    failures = get_section("resilience").smoke_gates(record)
    assert sorted(failures) == [
        f"resilience:kill-shard-{shard}: 0 failed, 0 mismatched, recovered=False"
        for shard in (0, 1)
    ]


def test_degraded_error_fails_its_gate(records):
    record = copy.deepcopy(records["trust"])
    record["degraded"] = {"site": FIRST, "error": "ServiceUnavailable()"}
    failures = get_section("trust").smoke_gates(record)
    assert [failure.split(": ")[0] for failure in failures] == [
        "trust:degraded-stale-answer"
    ]


# ----------------------------------------------------------------------
# the shared identity predicate and phase runner
# ----------------------------------------------------------------------
def _answer(cells, scores=None, stale=False):
    cells = np.asarray(cells)
    return SimpleNamespace(
        cells=cells,
        positions=np.stack([cells * 0.5, cells * 0.25], axis=1),
        scores=None if scores is None else np.asarray(scores, dtype=float),
        stale=stale,
    )


def test_identical_compares_scores_when_both_sides_carry_them():
    reference = _answer([1, 2], scores=[[0.0, -1.0], [-2.0, 0.0]])
    same = _answer([1, 2], scores=[[0.0, -1.0], [-2.0, 0.0]])
    assert common.identical(same, reference)
    assert common.identical(_answer([1, 2]), reference)  # no scores asked
    assert not common.identical(
        _answer([1, 2], scores=[[0.0, -1.0], [-2.0, 1e-300]]), reference
    )
    assert not common.identical(_answer([1, 3]), reference)


class _StubFleet:
    def __init__(self, answers):
        self._answers = iter(answers)

    def query_batch(self, site, frames, day):
        answer = next(self._answers)
        if isinstance(answer, Exception):
            raise answer
        return answer


def test_run_phase_counts_stale_and_raised_answers():
    expected = {"a": _answer([1, 2]), "b": _answer([3])}
    workloads = {"a": np.zeros((2, 2)), "b": np.zeros((1, 2))}
    fleet = _StubFleet(
        [
            _answer([1, 2]),
            _answer([3], stale=True),  # right bits, but stale
            OSError("worker died"),
            _answer([4]),  # wrong bits
            _answer([1, 2]),
        ]
    )
    phase = common.run_phase(fleet, workloads, expected, 5)
    assert phase["failed_queries"] == 1
    assert phase["mismatched_queries"] == 2


# ----------------------------------------------------------------------
# each section's workload stays bit-identical
# ----------------------------------------------------------------------
class _Captured(Exception):
    pass


#: sha256 of each section's workload arrays (seed 2016, 2 samples per
#: cell). A section's stream base and label select its workload, so a
#: change to either, or to the builder, shows here.
WORKLOAD_SHA256 = {
    "frontend": "5466177c17ed714b503fac1517c162055d400cb335e151cba229d406a5588ad3",
    "frontend_async": "5466177c17ed714b503fac1517c162055d400cb335e151cba229d406a5588ad3",
    "resilience": "da03cb5971349bb379941f713aeefe7a7fcd3a22e0a9a277d2134f823bd49434",
    "trust": "ad8903f0fcc0813b783052b1865e536219c2a296be2d5b9657c294ce47f1ce83",
    "loadgen": "961d6897c63c527483baf4b31851141c9c6517dfc25e05146aadef03cb39c36d",
}

WORKLOAD_RUNS = {
    "frontend": lambda: bench_frontend(sites=TWO, frames=24, samples_per_cell=2),
    "frontend_async": lambda: bench_frontend_async(
        sites=TWO, frames=24, samples_per_cell=2
    ),
    "resilience": lambda: bench_resilience(sites=TWO + ("square-5m",), frames=24),
    "trust": lambda: bench_trust(sites=TWO, frames=24),
    "loadgen": lambda: bench_loadgen(sites=TWO, frames=16, samples_per_cell=2),
}


@pytest.mark.parametrize("section", sorted(WORKLOAD_SHA256))
def test_section_workload_is_pinned(monkeypatch, section):
    module = importlib.import_module(f"repro.eval.bench.{section}")

    def capture(*args, **kwargs):
        raise _Captured(common.site_workloads(*args, **kwargs))

    monkeypatch.setattr(module, "site_workloads", capture)
    with pytest.raises(_Captured) as caught:
        WORKLOAD_RUNS[section]()
    digest = hashlib.sha256()
    for rss in caught.value.args[0].values():
        digest.update(np.ascontiguousarray(rss, dtype=float).tobytes())
    assert digest.hexdigest() == WORKLOAD_SHA256[section]
