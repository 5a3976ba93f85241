"""Half-edge bookkeeping, matchings, and graph containers."""

import pytest

from degconn import (DegreeSequence, Matching, MultiGraph, PartialMatching,
                     SimpleGraph, half_edge, half_edge_owner,
                     matching_to_multigraph)


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


def test_matching_to_multigraph_counts_loops_and_doubles():
    seq = DegreeSequence([2, 2])
    # double edge between the two vertices
    double = Matching.empty(seq).with_pair(0, 2).with_pair(1, 3)
    mg = matching_to_multigraph(seq, double)
    assert mg.edge_counts == {(1, 2): 2}
    assert not mg.is_simple
    assert mg.degree(1) == 2
    # two loops
    loops = Matching.empty(seq).with_pair(0, 1).with_pair(2, 3)
    mg2 = matching_to_multigraph(seq, loops)
    assert mg2.loop_count() == 2
    assert mg2.degree(1) == 2  # a loop contributes 2
    with pytest.raises(PartialMatching):
        matching_to_multigraph(seq, Matching.empty(seq).with_pair(0, 2))


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


def test_multigraph_to_simple():
    seq = DegreeSequence([2, 2, 2])
    m = (Matching.empty(seq).with_pair(0, 2).with_pair(1, 4)
         .with_pair(3, 5))
    mg = matching_to_multigraph(seq, m)
    assert mg.is_simple
    g = mg.to_simple()
    assert g.edges() == [(1, 2), (1, 3), (2, 3)]
    assert mg.degree_vector() == [2, 2, 2]
