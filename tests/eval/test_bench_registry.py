"""The BenchSection registry: ordering, --only filtering, smoke gates."""

from __future__ import annotations

import pytest

from repro.eval.bench import (
    get_section,
    run_perf_bench,
    section_names,
    sections,
    smoke_failures,
)

CANONICAL = [
    "solve",
    "engine",
    "serving",
    "frontend",
    "frontend_async",
    "resilience",
    "trust",
    "loadgen",
]


def test_every_section_registered_in_report_order():
    assert section_names() == CANONICAL


def test_sections_expose_their_report_keys():
    by_name = {section.name: section for section in sections()}
    assert by_name["solve"].report_key == "sizes"
    assert by_name["solve"].host_stamp == "rows"
    for name in CANONICAL[1:]:
        assert by_name[name].report_key == name
        assert by_name[name].host_stamp == "section"


def test_get_section_unknown_name():
    with pytest.raises(KeyError, match="unknown bench section"):
        get_section("warp-drive")


def test_only_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown bench section"):
        run_perf_bench(sizes=(), only=["warp-drive"])


def test_only_filters_sections():
    # Empty sizes keeps the solve section trivially cheap; every other
    # section's knob stays None, so `only` is the sole selector.
    report = run_perf_bench(
        sizes=(),
        only=["solve"],
        serving_sites=("square-3m",),  # would run without only=
    )
    assert "sizes" in report
    assert "serving" not in report
    assert set(report) == {"benchmark", "seed", "environment", "sizes"}


def test_none_knob_still_skips_inside_only():
    report = run_perf_bench(sizes=(), only=["solve", "serving"])
    assert "serving" not in report  # serving_sites=None skips it


def test_smoke_failures_skips_absent_sections():
    assert smoke_failures({"benchmark": "bench_perf"}) == []


def test_smoke_failures_surface_section_gates():
    # A loadgen record violating the determinism gate must be reported
    # through the aggregate registry path.
    report = {
        "loadgen": {
            "plan_bit_identical": False,
            "saturation": {},
            "closed_loop": None,
            "perturbation": None,
            "soak": None,
        }
    }
    failures = smoke_failures(report)
    assert any("bit-identical" in failure for failure in failures)

