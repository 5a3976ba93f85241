"""Half-edge bookkeeping, matchings, and graph containers."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degconn
from degconn import (DegreeSequence, Matching, SimpleGraph, half_edge,
                     half_edge_owner, matching_edges, random_matching)
from degconn.streams import substream


def test_half_edge_ids_and_owners():
    seq = DegreeSequence([2, 1, 3])
    # vertex 1 owns ids 0..1, vertex 2 id 2, vertex 3 ids 3..5
    assert half_edge(seq, 1, 0) == 0
    assert half_edge(seq, 3, 2) == 5
    for gid, owner in [(0, 1), (1, 1), (2, 2), (3, 3), (5, 3)]:
        assert half_edge_owner(seq, gid) == owner
    with pytest.raises(ValueError):
        half_edge(seq, 2, 1)  # vertex 2 has degree 1
    with pytest.raises(ValueError):
        half_edge_owner(seq, 6)


def test_matching_involution_and_pairs():
    seq = DegreeSequence([1, 1, 1, 1])
    m = Matching.empty(seq).with_pair(0, 2).with_pair(1, 3)
    m.validate()
    assert m.is_full
    assert m.pairs() == [(0, 2), (1, 3)]
    # validation happens at construction: partner array must be an involution
    with pytest.raises(ValueError):
        Matching([1, 0, 3, 1])


def test_matching_edges_counts_loops_and_doubles():
    seq = DegreeSequence([2, 2])
    # double edge between the two vertices: the pair twice, not simple
    double = Matching.empty(seq).with_pair(0, 2).with_pair(1, 3)
    assert matching_edges(seq, double) == [(1, 2), (1, 2)]
    with pytest.raises(ValueError, match="duplicate edge"):
        SimpleGraph(seq.n, matching_edges(seq, double))
    # two loops, one at each vertex
    loops = Matching.empty(seq).with_pair(0, 1).with_pair(2, 3)
    assert matching_edges(seq, loops) == [(1, 1), (2, 2)]
    with pytest.raises(ValueError, match="loop at 1"):
        SimpleGraph(seq.n, matching_edges(seq, loops))
    with pytest.raises(ValueError, match="unmatched half-edges"):
        matching_edges(seq, Matching.empty(seq).with_pair(0, 2))
    with pytest.raises(ValueError, match="matching length does not fit"):
        matching_edges(seq, Matching([1, 0]))


def test_simple_graph_container():
    g = SimpleGraph(4, [(2, 1), (3, 4), (1, 3)])
    assert g.edges() == [(1, 2), (1, 3), (3, 4)]
    assert g.degree_vector() == [2, 1, 2, 1]
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(2, 3)
    assert g.neighbors(1) == [2, 3]
    assert g.to_edge_list_text() == "1 2\n1 3\n3 4\n"
    again = SimpleGraph.from_edge_list_text(g.to_edge_list_text(), 4)
    assert again == g and hash(again) == hash(g)
    with pytest.raises(ValueError):
        SimpleGraph(4, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(4, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(4, [(1, 5)])


def test_simple_graph_error_messages():
    with pytest.raises(ValueError, match=r"^loop at 1 in simple graph$"):
        SimpleGraph(4, [(1, 1)])
    with pytest.raises(ValueError, match=r"^edge \(1,5\) out of range$"):
        SimpleGraph(4, [(1, 5)])
    with pytest.raises(ValueError, match=r"^edge \(0,1\) out of range$"):
        SimpleGraph(4, [(0, 1)])
    # a loop outside 1..n is reported as a loop
    with pytest.raises(ValueError, match=r"^loop at 5 in simple graph$"):
        SimpleGraph(4, [(5, 5)])
    for first, again in [((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (1, 2))]:
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            SimpleGraph(4, [first, (3, 4), again])


def test_simple_graph_reports_first_bad_edge():
    # each input holds several faults; the earliest edge decides the message
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(4, [(1, 2), (4, 9), (3, 3), (2, 1)])
    with pytest.raises(ValueError, match="loop at 3"):
        SimpleGraph(4, [(1, 2), (3, 3), (4, 9), (2, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        SimpleGraph(4, [(1, 2), (2, 1), (3, 3), (4, 9)])


def test_simple_graph_accepts_one_shot_iterator():
    g = SimpleGraph(4, zip([3, 1, 1], [4, 2, 3]))
    assert g.edges() == [(1, 2), (1, 3), (3, 4)] and g.m == 3
    assert g.neighbors(1) == [2, 3] and g.neighbors(3) == [1, 4]


def test_matching_edges_of_simple_triangle():
    seq = DegreeSequence([2, 2, 2])
    m = (Matching.empty(seq).with_pair(0, 2).with_pair(1, 4)
         .with_pair(3, 5))
    assert matching_edges(seq, m) == [(1, 2), (1, 3), (2, 3)]
    g = SimpleGraph(seq.n, matching_edges(seq, m))
    assert g.edges() == [(1, 2), (1, 3), (2, 3)]
    assert g.degree_vector() == [2, 2, 2]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_matching_edges_projects_every_pair(degrees, seed):
    if sum(degrees) % 2:
        degrees.append(1)
    seq = DegreeSequence(degrees)
    edges = matching_edges(seq, random_matching(seq, substream(seed, 0)))
    assert len(edges) == seq.m
    assert edges == sorted(edges) and all(u <= v for u, v in edges)
    ref = nx.MultiGraph()
    ref.add_nodes_from(range(1, seq.n + 1))
    ref.add_edges_from(edges)  # a loop counts 2 toward its vertex's degree
    assert [ref.degree(v) for v in range(1, seq.n + 1)] == seq.degrees


def test_public_names_resolve_once():
    assert len(degconn.__all__) == len(set(degconn.__all__))
    for name in degconn.__all__:
        assert hasattr(degconn, name), name
