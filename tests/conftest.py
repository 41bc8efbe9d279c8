import random
from typing import NamedTuple

import pytest

from quadexp import ParamInterval, delta_bound
from quadexp.rigor import representable


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): emit an ACCEPTANCE PASS/FAIL line for this test"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        report._acceptance_label = marker.args[0]


def pytest_runtest_logreport(report):
    label = getattr(report, "_acceptance_label", None)
    if label is not None:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {verdict}: {label}")


@pytest.fixture(scope="session")
def flagship():
    """The [1.9999, 2] interval used throughout the experiments."""
    return ParamInterval(0, representable("1.9999"), 2.0)


@pytest.fixture(scope="session")
def flagship_delta(flagship):
    """Certified radius for [1.9999, 2] at the default coarse stage."""
    bound = delta_bound(flagship)
    assert bound is not None
    return bound.delta_bar


@pytest.fixture()
def rng():
    return random.Random(20250810)


class Cell(NamedTuple):
    lo: float
    hi: float


def cells_of(partition):
    """The partition's k + 1 cells [lo, hi] in vertex order: ascending, with
    the closed critical cell [-delta, delta] at index k/2."""
    bounds = partition.bounds.tolist()
    return [Cell(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def random_int_graph(rng, max_vertices=8, weight_range=9):
    """Random digraph with small integer weights and no duplicate edges."""
    from quadexp.digraph import WeightedDigraph

    n = rng.randint(1, max_vertices)
    edges = []
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.35:
                edges.append((u, v, float(rng.randint(-weight_range, weight_range))))
    return WeightedDigraph.from_edges(n, edges)
