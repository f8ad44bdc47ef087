"""Shared fixtures for the test suite.

Fixtures are deliberately small and deterministic; the expensive paper
benchmarks (Bm1–Bm4) are session-scoped so each is generated once.
"""

from __future__ import annotations

import pytest

from repro.floorplan.geometry import Block, Floorplan, Rect
from repro.floorplan.platform import platform_floorplan
from repro.library.pe import Architecture, PEType
from repro.library.presets import (
    default_catalogue,
    default_platform,
    library_for_graph,
)
from repro.taskgraph.benchmarks import benchmark
from repro.taskgraph.graph import TaskGraph


@pytest.fixture
def diamond_graph() -> TaskGraph:
    """A 4-task diamond: a -> (b, c) -> d, deadline 400."""
    graph = TaskGraph("diamond", deadline=400.0)
    graph.add("a", "type0")
    graph.add("b", "type1")
    graph.add("c", "type2")
    graph.add("d", "type0")
    graph.add_edge("a", "b", data=2.0)
    graph.add_edge("a", "c", data=3.0)
    graph.add_edge("b", "d", data=1.0)
    graph.add_edge("c", "d", data=1.0)
    return graph


@pytest.fixture
def chain_graph() -> TaskGraph:
    """A 5-task chain with one task type, deadline 600."""
    graph = TaskGraph("chain", deadline=600.0)
    previous = None
    for index in range(5):
        name = f"t{index}"
        graph.add(name, "type0")
        if previous is not None:
            graph.add_edge(previous, name)
        previous = name
    return graph


@pytest.fixture
def wide_graph() -> TaskGraph:
    """One source fanning out to 6 independent tasks, deadline 900."""
    graph = TaskGraph("wide", deadline=900.0)
    graph.add("src", "type0")
    for index in range(6):
        name = f"w{index}"
        graph.add(name, f"type{index % 3}")
        graph.add_edge("src", name)
    return graph


@pytest.fixture
def platform4() -> Architecture:
    """The paper's platform: four identical emb-risc PEs."""
    return default_platform()


@pytest.fixture
def small_catalogue():
    """The full preset catalogue."""
    return default_catalogue()


@pytest.fixture
def diamond_library(diamond_graph):
    """Library covering the diamond graph on the full catalogue."""
    return library_for_graph(diamond_graph)


@pytest.fixture
def chain_library(chain_graph):
    """Library covering the chain graph."""
    return library_for_graph(chain_graph)


@pytest.fixture
def wide_library(wide_graph):
    """Library covering the wide graph."""
    return library_for_graph(wide_graph)


@pytest.fixture
def platform_plan(platform4) -> Floorplan:
    """Canonical platform floorplan (row of four)."""
    return platform_floorplan(platform4)


@pytest.fixture
def two_block_plan() -> Floorplan:
    """Two abutting 6x6 blocks."""
    plan = Floorplan()
    plan.place("left", 0.0, 0.0, 6.0, 6.0)
    plan.place("right", 6.0, 0.0, 6.0, 6.0)
    return plan


@pytest.fixture(scope="session")
def bm1():
    """Benchmark Bm1 (19 tasks / 19 edges / deadline 790)."""
    return benchmark("Bm1")


@pytest.fixture(scope="session")
def bm1_library(bm1):
    """Technology library for Bm1."""
    return library_for_graph(bm1)


@pytest.fixture(scope="session")
def bm2():
    """Benchmark Bm2 (35 tasks / 40 edges / deadline 1500)."""
    return benchmark("Bm2")


@pytest.fixture(scope="session")
def bm2_library(bm2):
    """Technology library for Bm2."""
    return library_for_graph(bm2)


@pytest.fixture(scope="session")
def paper_bm1_store(tmp_path_factory):
    """The Bm1 slice of the ``paper-tables`` suite (11 specs), run once
    into a result store — what the paper analyzers report from."""
    from repro.scenarios import run_scenario

    path = tmp_path_factory.mktemp("paper-bm1") / "store"
    run_scenario("paper-tables", overrides={"graph.name": "Bm1"}, store=path)
    return path


@pytest.fixture(scope="session")
def paper_bm1_runs(paper_bm1_store):
    """The stored Bm1 ``paper-tables`` records, as a RunSet."""
    from repro.results import ResultStore

    return ResultStore(paper_bm1_store).load()
