import pytest
from hypothesis import given, strategies as st

from rideshare_market import (
    Edge,
    Network,
    ODPair,
    Route,
    ValidationError,
    covers,
    route_vertex_sequence,
)


@pytest.fixture
def net():
    return Network(
        frozenset("ABCD"),
        (
            Edge("e1", "A", "B"),
            Edge("e2", "B", "C"),
            Edge("e3", "C", "D"),
            Edge("e4", "B", "A"),
            Edge("e5", "A", "C"),
        ),
    )


def test_vertex_sequence_chains(net):
    assert route_vertex_sequence(net, Route(("e1", "e2"))) == ["A", "B", "C"]
    assert route_vertex_sequence(net, Route(("e1",))) == ["A", "B"]


def test_vertex_sequence_chain_break(net):
    with pytest.raises(ValidationError, match="position 2"):
        route_vertex_sequence(net, Route(("e1", "e3")))


def test_vertex_sequence_unknown_edge(net):
    with pytest.raises(ValidationError, match="nope"):
        route_vertex_sequence(net, Route(("e1", "nope")))


def test_network_rejects_dangling_edges():
    with pytest.raises(ValidationError, match="tail"):
        Network(frozenset("A"), (Edge("e1", "X", "A"),))


def test_network_rejects_duplicate_edge_ids():
    with pytest.raises(ValidationError, match="duplicate"):
        Network(frozenset("AB"), (Edge("e1", "A", "B"), Edge("e1", "A", "B")))


def test_empty_route_rejected():
    with pytest.raises(ValidationError):
        Route(())


def test_degenerate_od_rejected():
    with pytest.raises(ValidationError, match="origin equals destination"):
        ODPair("A", "A")


def test_covers_requires_pickup_before_dropoff(net):
    r = Route(("e1", "e2"))
    assert covers(net, r, ODPair("A", "C"))
    assert not covers(net, r, ODPair("C", "A"))


def test_covers_scans_revisits(net):
    # A -> B -> A -> C revisits A; pickup at B still precedes drop-off at C
    r = Route(("e1", "e4", "e5"))
    assert covers(net, r, ODPair("B", "C"))
    assert covers(net, r, ODPair("A", "C"))
    assert not covers(net, r, ODPair("C", "B"))


def test_covers_monotone_under_extension(net):
    assert covers(net, Route(("e1", "e2")), ODPair("A", "C"))
    assert covers(net, Route(("e1", "e2", "e3")), ODPair("A", "C"))


@given(st.lists(st.sampled_from("e1 e2 e3 e4 e5".split()), min_size=1, max_size=6), st.data())
def test_covers_matches_brute_force(brute_force_covers, edge_ids, data):
    net = Network(
        frozenset("ABCD"),
        (
            Edge("e1", "A", "B"),
            Edge("e2", "B", "C"),
            Edge("e3", "C", "D"),
            Edge("e4", "B", "A"),
            Edge("e5", "A", "C"),
        ),
    )
    route = Route(tuple(edge_ids))
    try:
        seq = route_vertex_sequence(net, route)
    except ValidationError:
        return
    origin = data.draw(st.sampled_from("ABCD"))
    dest = data.draw(st.sampled_from([v for v in "ABCD" if v != origin]))
    od = ODPair(origin, dest)
    assert covers(net, route, od) == brute_force_covers(seq, od)
    if covers(net, route, od):
        assert origin in seq and dest in seq
