"""Unit tests for port identifiers and the exception hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    ConfigurationError,
    DeletedNodeError,
    DuplicateNodeError,
    ForgivingGraphError,
    HaftStructureError,
    InvalidEdgeError,
    InvariantViolationError,
    ProtocolError,
    UnknownNodeError,
)
from repro.core.ports import Port, edge_key, node_order_key, sorted_nodes


class ReferenceNodeKey:
    """The order key class the tuple key replaced, kept as the reference."""

    __slots__ = ("type_name", "value")

    def __init__(self, value):
        self.type_name = type(value).__name__
        self.value = value

    def __lt__(self, other):
        if self.type_name != other.type_name:
            return self.type_name < other.type_name
        a, b = self.value, other.value
        natural = (int, float, str, bytes)
        if isinstance(a, natural) and isinstance(b, natural):
            return a < b
        return repr(a) < repr(b)


#: Naturally ordered scalars (NaN included) and ``None``, which orders by repr.
SCALAR_IDS = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
)

#: Mixed node ids: half scalars, half nested tuples and frozensets (by repr).
MIXED_IDS = st.one_of(
    SCALAR_IDS,
    st.recursive(
        SCALAR_IDS,
        lambda children: st.one_of(
            st.tuples(children, children), st.frozensets(children, max_size=3)
        ),
        max_leaves=6,
    ),
)


class TestNodeKey:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(MIXED_IDS, max_size=12))
    def test_tuple_key_orders_like_the_reference_class(self, ids):
        for a in ids:
            for b in ids:
                assert (node_order_key(a) < node_order_key(b)) == (
                    ReferenceNodeKey(a) < ReferenceNodeKey(b)
                )
        # Identity, not equality: NaN ids must land in the same slots too.
        ours = sorted(ids, key=node_order_key)
        reference = sorted(ids, key=ReferenceNodeKey)
        assert [id(x) for x in ours] == [id(x) for x in reference]
        assert [id(x) for x in sorted_nodes(ids)] == [id(x) for x in reference]

    def test_a_repr_ordered_type_named_like_a_natural_one_sorts_apart(self):
        """Two classes sharing one ``__name__``, one natural: the reference
        compared their reprs; the key keeps them apart and never compares an
        int with a string."""
        impostor = type("int", (), {"__repr__": lambda self: "impostor"})()
        assert sorted_nodes([impostor, 5, 3]) == [3, 5, impostor]

    def test_natural_order_within_type(self):
        assert sorted_nodes([10, 2, 1]) == [1, 2, 10]  # not lexicographic "1","10","2"
        assert sorted_nodes(["b", "a10", "a2"]) == ["a10", "a2", "b"]

    def test_types_group_deterministically(self):
        assert sorted_nodes([1, "a", 2, "b"]) == [1, 2, "a", "b"]

    def test_total_order_for_partially_ordered_ids(self):
        """Regression: sets order by subset (a partial order); the key must not
        mix that with the repr fallback, or sorting becomes input-dependent."""
        from itertools import permutations

        ids = [frozenset({9}), frozenset({9, 2}), frozenset({94})]
        orders = {tuple(sorted_nodes(p)) for p in permutations(ids)}
        assert len(orders) == 1

    def test_key_is_irreflexive_and_consistent(self):
        assert not node_order_key(3) < node_order_key(3)
        assert node_order_key(2) < node_order_key(10)
        assert not node_order_key(10) < node_order_key(2)
        assert node_order_key("x") == node_order_key("x")
        assert node_order_key(1) != node_order_key(True)  # bool and int group separately


class TestPort:
    def test_fields(self):
        port = Port("v", "x")
        assert port.processor == "v"
        assert port.neighbor == "x"

    def test_frozen(self):
        port = Port(1, 2)
        with pytest.raises(AttributeError):
            port.processor = 3

    def test_equality_and_hash(self):
        assert Port(1, 2) == Port(1, 2)
        assert Port(1, 2) != Port(2, 1)
        assert len({Port(1, 2), Port(1, 2), Port(2, 1)}) == 2

    def test_reversed(self):
        assert Port("a", "b").reversed() == Port("b", "a")
        assert Port("a", "b").reversed().reversed() == Port("a", "b")

    def test_ordering(self):
        assert sorted([Port(2, 1), Port(1, 2)]) == [Port(1, 2), Port(2, 1)]

    def test_usable_as_dict_key(self):
        table = {Port(0, 1): "x"}
        assert table[Port(0, 1)] == "x"

    def test_is_its_plain_pair_with_a_pinned_repr(self):
        """Message seals cover payload reprs, so the repr must never drift."""
        port = Port(1, "a")
        assert repr(port) == "Port(processor=1, neighbor='a')"
        assert isinstance(port, tuple)
        assert port == (1, "a")
        assert hash(port) == hash((1, "a"))


class TestEdgeKey:
    def test_symmetric(self):
        assert edge_key(1, 2) == edge_key(2, 1)

    def test_string_nodes(self):
        assert edge_key("b", "a") == edge_key("a", "b")

    def test_mixed_types_are_stable(self):
        assert edge_key(1, "a") == edge_key("a", 1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            edge_key(3, 3)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_cls",
        [
            UnknownNodeError,
            DuplicateNodeError,
            DeletedNodeError,
            InvalidEdgeError,
            HaftStructureError,
            InvariantViolationError,
            ProtocolError,
            ConfigurationError,
        ],
    )
    def test_all_derive_from_base(self, error_cls):
        assert issubclass(error_cls, ForgivingGraphError)

    def test_unknown_node_is_key_error(self):
        assert issubclass(UnknownNodeError, KeyError)

    def test_duplicate_node_is_value_error(self):
        assert issubclass(DuplicateNodeError, ValueError)

    def test_unknown_node_message_includes_context(self):
        error = UnknownNodeError(42, "during delete")
        assert "42" in str(error)
        assert "during delete" in str(error)

    def test_deleted_node_keeps_node_reference(self):
        error = DeletedNodeError("n7")
        assert error.node == "n7"
