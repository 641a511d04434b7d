"""Shared fixtures for the Forgiving Graph reproduction test-suite."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import ForgivingGraph
from repro.distributed import Processor
from repro.generators import make_graph


@pytest.fixture
def rng():
    """A deterministic numpy random generator."""
    return np.random.default_rng(20090214)


@pytest.fixture
def star_10():
    """A star graph with hub 0 and 9 leaves."""
    return nx.star_graph(9)


@pytest.fixture
def path_8():
    """A path graph 0-1-...-7."""
    return nx.path_graph(8)


@pytest.fixture
def small_er():
    """A small connected Erdős–Rényi graph (seeded)."""
    return make_graph("erdos_renyi", 30, seed=7)


@pytest.fixture
def power_law_60():
    """A 60-node Barabási–Albert graph (seeded)."""
    return make_graph("power_law", 60, seed=11)


@pytest.fixture
def checked_fg(small_er):
    """A ForgivingGraph over the small ER graph with invariant checking enabled."""
    return ForgivingGraph.from_graph(small_er, check_invariants=True)


@pytest.fixture
def received_messages(monkeypatch):
    """Every message a processor is handed during the test, in delivery order.

    Taps ``Processor.receive`` on the class, so it sees every delivery of
    every network the test builds.
    """
    received = []
    receive = Processor.receive

    def tapped(processor, message):
        received.append(message)
        return receive(processor, message)

    monkeypatch.setattr(Processor, "receive", tapped)
    return received
