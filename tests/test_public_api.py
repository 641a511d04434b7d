"""Public-API hygiene: exports exist, are importable and are documented."""

import importlib
import inspect

import pytest

import repro


PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.haft",
    "repro.core.reconstruction_tree",
    "repro.core.forgiving_graph",
    "repro.core.ports",
    "repro.core.errors",
    "repro.distributed",
    "repro.distributed.messages",
    "repro.distributed.network",
    "repro.distributed.processor",
    "repro.distributed.protocol",
    "repro.distributed.simulator",
    "repro.distributed.metrics",
    "repro.distributed.faults",
    "repro.service",
    "repro.service.store",
    "repro.service.metrics",
    "repro.baselines",
    "repro.adversary",
    "repro.generators",
    "repro.analysis",
    "repro.engine",
    "repro.experiments",
    "repro.experiments.catalog",
    "repro.adversary.incremental",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a module docstring"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.core",
        "repro.distributed",
        "repro.baselines",
        "repro.adversary",
        "repro.analysis",
        "repro.engine",
        "repro.experiments",
        "repro.service",
    ],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_top_level_quickstart_docstring_example():
    """The doctest-style example in the package docstring must actually work."""
    from repro import ForgivingGraph

    fg = ForgivingGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    fg.delete(1)
    assert sorted(fg.actual_graph().nodes) == [0, 2, 3]


@pytest.mark.parametrize(
    "cls_path",
    [
        "repro.core.forgiving_graph.ForgivingGraph",
        "repro.core.reconstruction_tree.ReconstructionTree",
        "repro.distributed.simulator.DistributedForgivingGraph",
        "repro.baselines.base.SelfHealer",
        "repro.adversary.schedule.AttackSchedule",
        "repro.engine.AttackSession",
        "repro.adversary.incremental.SurvivorDegreeTracker",
    ],
)
def test_public_classes_have_documented_public_methods(cls_path):
    module_name, _, cls_name = cls_path.rpartition(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert cls.__doc__ and cls.__doc__.strip()
    undocumented = [
        name
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction)
        if not name.startswith("_") and not (member.__doc__ and member.__doc__.strip())
    ]
    assert not undocumented, f"{cls_path} has undocumented public methods: {undocumented}"


def test_healer_protocol_is_uniform():
    """ForgivingGraph, DistributedForgivingGraph and every baseline share the healer API."""
    from repro import ForgivingGraph
    from repro.baselines import HealerSpec, available_healers
    from repro.distributed import DistributedForgivingGraph
    from repro.generators import make_graph

    graph = make_graph("ring", 8)
    healers = [HealerSpec(name).build(graph) for name in available_healers()]
    healers.append(DistributedForgivingGraph.from_graph(graph))
    for healer in healers:
        for attribute in ("insert", "delete", "actual_graph", "g_prime_view", "g_prime_degree",
                          "alive_nodes", "num_alive", "nodes_ever", "degree_increase_factor"):
            assert hasattr(healer, attribute), f"{type(healer).__name__} lacks {attribute}"
