"""Golden digests: the distributed healer's ledgers and healed state, pinned.

Recomputes every scenario of ``tests/golden/regen.py`` and compares its
sha256 digest with the committed ``tests/golden/digests.json``.  The digests
cover the Lemma 4 cost reports, the network's traffic totals, the sourced
link table, every processor's Table 1 records and the accusation transcript,
so any change to the message layer that is not behaviour-preserving shows up
here as a mismatch naming the scenario.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXPECTED = json.loads(regen.FIXTURE.read_text())


def test_fixture_names_every_scenario():
    assert set(EXPECTED) == set(regen.scenarios())


@pytest.mark.parametrize("name", sorted(regen.scenarios()))
def test_digest_matches_fixture(name):
    assert regen.digest(regen.scenarios()[name]()) == EXPECTED[name], (
        f"{name}: the observable behaviour changed; find the difference "
        "instead of regenerating tests/golden/digests.json"
    )


def test_canonical_form_is_order_independent():
    assert regen.digest({"s": {3, 1, 2}}) == regen.digest({"s": {2, 3, 1}})
    assert regen.digest({"d": {1: "a", 2: "b"}}) == regen.digest({"d": {2: "b", 1: "a"}})
    assert regen.digest({"l": [1, 2]}) != regen.digest({"l": [2, 1]})
