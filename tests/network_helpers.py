"""Test-only network surface: bare links, a drain loop and a queue count.

Program code never makes a link without a source: every link in
``Network._links`` stands for a real edge or a virtual RT edge, and a
repair's temporary edges are a permission, not links.  Tests of the message
layer alone still want two processors that may talk, a network drained
round by round and the size of the next round's batch, so those live here,
on top of the network's own link table.
"""

from __future__ import annotations

from repro.core.errors import ProtocolError, UnknownNodeError
from repro.distributed.network import Network


def connect(network: Network, u, v) -> None:
    """Create a bare (unsourced) link between two existing processors."""
    if u == v:
        return
    if u not in network.processors or v not in network.processors:
        raise UnknownNodeError(u if u not in network.processors else v, "connect")
    if v not in network._links[u]:
        network._set_keys(u, v, ())


def disconnect(network: Network, u, v) -> None:
    """Drop the link between ``u`` and ``v`` with all its sources, if it
    exists (dead ends tolerated); a sourced link is marked like any write."""
    if not network.are_linked(u, v):
        return
    keys = network._links[u].pop(v)
    del network._links[v][u]
    if keys:
        network._mark_link(u, v, keys)


def run_until_quiet(network: Network, max_rounds: int = 10_000) -> int:
    """Deliver rounds until no messages remain in flight; returns rounds used."""
    rounds = 0
    while network.in_flight:
        if rounds >= max_rounds:
            raise ProtocolError(f"protocol did not quiesce within {max_rounds} rounds")
        network.deliver_round()
        rounds += 1
    return rounds


def pending_messages(network: Network) -> int:
    """Messages queued for the next round (fault-delayed ones excluded)."""
    return len(network._outbox)
