from fractions import Fraction as F

import pytest

from rideshare_market import (
    Edge,
    MarketInstance,
    Network,
    ODPair,
    Route,
    Traveler,
    Vehicle,
)


@pytest.fixture(scope="session")
def brute_force_covers():
    """Route service by its definition, apart from the package's own rule:
    some position of the vertex sequence ``seq`` is ``od``'s origin and a
    later one its destination."""

    def covers(seq, od):
        return any(
            seq[s] == od.origin and seq[u] == od.destination
            for s in range(len(seq))
            for u in range(s + 1, len(seq))
        )

    return covers


@pytest.fixture
def canonical():
    """Two travelers, one two-seat vehicle riding A->B->C.

    T1 goes A->C (value 8 after inconvenience 2), T2 goes B->C (value 6).
    Per-seat cost share is 2; pair surpluses are 6 and 4.
    """
    net = Network(frozenset("ABC"), (Edge("e1", "A", "B"), Edge("e2", "B", "C")))
    v1 = Vehicle("V1", Route(("e1", "e2")), capacity=2, operating_cost=F(4))
    t1 = Traveler("T1", ODPair("A", "C"), v_max=F(10), v_min=F(1), inconvenience={"V1": F(2)})
    t2 = Traveler("T2", ODPair("B", "C"), v_max=F(6), v_min=F(0), inconvenience={"V1": F(0)})
    return MarketInstance(net, (t1, t2), (v1,))
