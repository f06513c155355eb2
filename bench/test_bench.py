"""Tests of the benchmark's own code: toy runs, metric names, self times."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads
from hamsim import cli, coloring, one_sparse, parity
from hamsim.config import PlanError

BENCH = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

# the four workloads at toy sizes, built by the same factories
TOY = [
    workloads.simulate_workload("sim-deep", n=3, d=2, eps=1e-2),
    workloads.simulate_workload("sim-wide", n=4, d=3, eps=1e-1),
    workloads.parity_workload("parity-ladder", size=8, eps=0.2),
    workloads.kernel_workload("kernel-wide", dim=64, pieces=3, k=2, r=2),
]


def test_declared_workloads_are_the_ones_that_run():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("wl", TOY, ids=lambda wl: wl.name)
def test_toy_run_passes_its_checks_and_emits_the_declared_metrics(
        wl, trace):
    result, _, _ = run.run_workload(wl, seed=3, seconds=0.0, trace=trace)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_a_solve_that_raises_counts_as_failed(trace):

    def refuse(_inputs):
        raise PlanError("refused")

    wl = dataclasses.replace(TOY[2], solve=refuse)
    result, lines, _ = run.run_workload(wl, seed=0, seconds=0.0, trace=trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("PlanError: refused" in line for line in lines)


def test_traced_run_accounts_for_the_solve_and_restores_the_program():
    originals = (cli.simulate_pipeline, parity.apply_product_formula,
                 one_sparse.pack_tables, coloring.ColoredOracle.column)
    result, _, tracer = run.run_workload(TOY[1], seed=0, seconds=0.0,
                                         trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    own = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert own == pytest.approx(metrics["trace.solve_s"], rel=1e-9)
    assert metrics["coloring.lookups"] > 0
    assert metrics["oracle.queries_total"] >= metrics["oracle.base_queries"]
    assert metrics["suzuki.r"] > 0 and metrics["kernels.apply_s"] > 0
    assert all(sp.end >= sp.start for sp in tracer.spans)
    assert (cli.simulate_pipeline, parity.apply_product_formula,
            one_sparse.pack_tables, coloring.ColoredOracle.column) == originals


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("bench.solve") as root:      # [0, 10]
        with tracer.span("one_sparse.apply"):     # [1, 4]
            with tracer.span("kernels.apply"):    # [2, 3]
                pass
        with tracer.span("numerics.norm"):        # [5, 9]
            pass
    assert spans.self_times(tracer.spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert spans.layer_self_times(spans.by_root(tracer.spans)[root.id]) == {
        "bench": 3.0, "one_sparse": 2.0, "kernels": 1.0, "numerics": 4.0}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        spans.Span(0, "bench.solve", None, 0.0, 10.0),
        spans.Span(1, "a.f", 0, 1.0, 4.0),
        spans.Span(2, "b.g", 0, 3.0, 6.0),    # overlaps its sibling
        spans.Span(3, "a.h", 1, 1.5, 2.0),
        spans.Span(4, "c.k", 0, 8.0, 12.0),   # runs past its parent
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.5, 2: 3.0, 3: 0.5, 4: 4.0}
    assert {root: [sp.id for sp in t]
            for root, t in spans.by_root(tree).items()} == {0: [0, 1, 2, 3, 4]}


def test_wrappers_call_straight_through_outside_a_root():
    tracer = spans.Tracer()
    traced = tracer.wrap("x.f", lambda v: v + 1)
    assert traced(1) == 2 and tracer.spans == []
    with tracer.span("bench.solve"):
        assert traced(2) == 3
    assert [sp.name for sp in tracer.spans] == ["bench.solve", "x.f"]


def test_gauge_times_a_region_and_stops_its_reference():
    before = os.sched_getaffinity(0)
    gauge = reference.Gauge(("sweeps", "python", "dense"))
    try:
        with gauge.region() as reg:
            sum(range(10**6))
    finally:
        gauge.close()
    assert reg.cpu > 0 and reg.seconds > 0
    assert reg.blocks >= reference.MIN_BLOCKS
    assert not gauge._child.is_alive()
    assert os.sched_getaffinity(0) == before
