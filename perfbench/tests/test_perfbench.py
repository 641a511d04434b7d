"""Tests of the benchmark itself: tiny workloads, span arithmetic, repeats, restore.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import types

import pytest

import harness
import layers
import run
from spans import Tracer, self_times

#: Every catalog workload shrunk so that one pass takes well under a second.
TINY = {
    "maxdeg-lossless": {"n": 80, "moves": 12, "measure_every": 5},
    "maxdeg-reorder": {"n": 60, "moves": 10, "measure_every": 4},
    "burst-churn": {"n": 120, "moves": 12, "burst_size": 4, "measure_every": 5},
    "service-restart": {"n": 60, "ops": 32, "checkpoint_every": 16, "crash_tail": 3, "measure_every_pumps": 2},
}


@pytest.fixture
def tiny_catalog(tmp_path, monkeypatch):
    """Point ``run`` at a shrunk copy of the catalog and a scratch work dir."""
    catalog = json.loads(run.CATALOG.read_text())
    for workload in catalog["workloads"]:
        for version in workload["versions"]:
            version["instances"] = 2
            version["repeats"] = 2
            version["params"].update(TINY[workload["name"]])
    path = tmp_path / "workloads.json"
    path.write_text(json.dumps(catalog))
    monkeypatch.setattr(run, "CATALOG", path)
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "work")
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")
    return harness.load_catalog(path)


def run_json(capsys, *args):
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_every_workload(tiny_catalog, tmp_path, name):
    result = harness.run_pass(tiny_catalog[name], seed=3, workdir=tmp_path)
    assert result.problems == []
    assert result.failed == 0
    assert result.deletions > 0 and result.delete_ms
    assert result.counts["deleted"] > 0 and result.counts["messages"] > 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    totals = self_times(spans)
    assert totals["a"] == (2, pytest.approx(10.0 - 3.0 - 1.0 + 1.0))
    assert totals["b"] == (2, pytest.approx(2.0 + 1.0))
    assert totals["c"] == (1, pytest.approx(1.0))
    assert sum(seconds for _, seconds in totals.values()) == pytest.approx(11.0)


def test_tracer_records_parents_and_counters():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(module, "inner", "m.inner", after=lambda args, result, _: {"m.sum": result})
    tracer.wrap(module, "outer", "m.outer")
    assert module.outer(1) == 4
    tracer.restore()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("m.outer", -1), ("m.inner", 0)]
    assert tracer.counters["m.sum"] == 2
    assert module.outer(1) == 4 and len(tracer.spans) == 2


def test_tracer_restores_classmethods_and_inherited_methods():
    class Base:
        def hello(self):
            return "base"

        @classmethod
        def make(cls):
            return cls()

    class Child(Base):
        pass

    raw_make = vars(Base)["make"]
    tracer = Tracer()
    tracer.wrap(Child, "hello", "child.hello")
    tracer.wrap(Base, "make", "base.make")
    assert Child.make().hello() == "base"
    assert [span[0] for span in tracer.spans] == ["base.make", "child.hello"]
    tracer.restore()
    assert "hello" not in vars(Child)
    assert vars(Base)["make"] is raw_make


def test_speed_gauge_scales_by_the_loops_around_a_piece(monkeypatch):
    gauge = harness.SpeedGauge()
    loops = iter([1.5 * harness.GAUGE_REFERENCE_S, 2.5 * harness.GAUGE_REFERENCE_S])
    monkeypatch.setattr(gauge, "_loop", lambda: next(loops))
    gauge.start()
    assert gauge.scale() == pytest.approx(0.5)


def test_gauge_loops_stay_out_of_pass_time(tiny_catalog, tmp_path):
    result = harness.run_pass(tiny_catalog["maxdeg-lossless"], seed=1, workdir=tmp_path)
    moves = TINY["maxdeg-lossless"]["moves"]
    assert len(result.gauge.samples) >= 2 * (moves + 1)
    assert all(seconds > 0 for seconds in result.churn + [result.setup_s])


def test_counts_repeat_exactly_across_runs(tiny_catalog, capsys):
    counts = ("msgs_per_delete", "bits_per_delete", "rounds_per_delete", "peak_stretch", "peak_degree_factor")
    first_code, first = run_json(capsys, "--workload", "burst-churn", "--seed", "5", "--seconds", "0")
    second_code, second = run_json(capsys, "--workload", "burst-churn", "--seed", "5", "--seconds", "0")
    assert first_code == second_code == 0
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.END_TO_END)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name]


def test_checks_pass_on_a_second_seed(tiny_catalog, capsys):
    code, result = run_json(capsys, "--workload", "maxdeg-lossless", "--seed", "11", "--seconds", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    passes = 2 * 2 + 1  # two instances, two rounds, plus the heap pass
    assert result["attempted"] == passes * TINY["maxdeg-lossless"]["moves"]


def test_traced_run_restores_every_wrapped_attribute(tiny_catalog, capsys):
    before = {layer.name: vars(layer.owner).get(layer.attr) for layer in layers.LAYERS}
    code, result = run_json(capsys, "--workload", "service-restart", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(layers.metric_units())
    assert result["metrics"]["store.write_checkpoint.calls"]["value"] > 0
    for layer in layers.LAYERS:
        assert vars(layer.owner).get(layer.attr) is before[layer.name], layer.name


def test_failed_check_fails_the_command(tiny_catalog, capsys, monkeypatch):
    original = harness.run_pass

    def broken(workload, seed, workdir, heap=False):
        result = original(workload, seed, workdir, heap)
        result.problem("injected")
        return result

    monkeypatch.setattr(harness, "run_pass", broken)
    code, result = run_json(capsys, "--workload", "maxdeg-reorder", "--seed", "1", "--seconds", "0")
    assert code == 1 and result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "burst-churn", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    catalog = [w["name"] for w in json.loads(run.CATALOG.read_text())["workloads"]]
    hand_only = ("maxdeg-reorder", "burst-churn")  # in the catalog, left out of BENCHMARK.json
    assert [w["name"] for w in spec["workloads"]] == [n for n in catalog if n not in hand_only]


def test_catalog_versions_are_complete():
    catalog = json.loads(run.CATALOG.read_text())
    for workload in catalog["workloads"]:
        versions = [entry["version"] for entry in workload["versions"]]
        assert workload["current"] in versions
        assert versions == sorted(set(versions))
        for entry in workload["versions"]:
            assert entry["why"] and entry["driver"] in ("attack", "service")
