"""Exploration process: frozen traces, invariant checker, truncation, and
distributional equivalence of sample-and-replay at enumerable scale."""

import math
from collections import Counter
from dataclasses import replace

import pytest

from degconn import (DegreeSequence, Matching, SimpleGraph, check_trace,
                     connected_components, explore, explore_components,
                     explore_matching, explore_revealing,
                     havel_hakimi_construct, matching_to_multigraph,
                     truncated_increment)
from degconn.census import sample_batch
from degconn.exact import graphical_multisets, iter_matching_extensions
from degconn.explore import small_degree_cutoff
from degconn.families import regular, with_leaves
from degconn.streams import substream

K4 = SimpleGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
TRIANGLE = SimpleGraph(3, [(1, 2), (1, 3), (2, 3)])


def rows(trace):
    return [(r.i, r.v, r.d_i, r.J, r.K, r.L, r.X, r.x_prev, r.X_star)
            for r in trace.records]


def test_k4_trace_frozen():
    t = explore(K4, 1)
    assert rows(t) == [
        (1, 1, 3, 0, 0, 0, 6, 3, 2.7),
        (2, 2, 2, 0, 0, 2, 2, 6, 1.8),
        (3, 3, 1, 0, 0, 1, 0, 2, 0.9),
    ]
    assert t.records[0].new_vertices == ((2, 3), (3, 3), (4, 3))
    assert t.died_at == 3
    assert t.component == frozenset({1, 2, 3, 4})
    assert t.m == 6
    assert t.to_csv_text() == (
        "i,v_i,d_i,J,K,L,X,X_star\r\n"
        "1,1,3,0,0,0,6,2.7\r\n"
        "2,2,2,0,0,2,2,1.8\r\n"
        "3,3,1,0,0,1,0,0.9\r\n")


def test_triangle_trace_frozen():
    t = explore(TRIANGLE, 1)
    # m = 3: cutoff ~1.44, so d = 2 takes the 0.9 d branch and d = 1 the
    # min branch (which may go negative; truncation is only from above)
    assert rows(t) == [
        (1, 1, 2, 0, 2, 0, 2, 2, 1.8),
        (2, 2, 1, 0, 0, 1, 0, 2, -2),
    ]


def test_single_edge_trace_frozen():
    t = explore(SimpleGraph(2, [(1, 2)]), 1)
    assert rows(t) == [(1, 1, 1, 1, 0, 0, 0, 1, -1)]
    assert t.component == frozenset({1, 2})


def test_loop_multigraph_trace_frozen():
    seq = DegreeSequence([2])
    t = explore_matching(seq, Matching([1, 0]), 1)
    assert rows(t) == [(1, 1, 2, 0, 0, 2, 0, 2, -2)]
    # a loop violates the simple-only invariants but none of the shared ones
    assert check_trace(t, simple=False) == []
    assert any("sqrt" in msg for msg in check_trace(t, simple=True))


@pytest.mark.parametrize("degrees, partner, want", [
    # a double edge between 1 and 2: the second copy is exposed at step 1,
    # so step 2 skips both half-edges back to the selected vertex 1
    ([2, 3, 1], [2, 3, 0, 1, 5, 4],
     [(1, 1, 2, 0, 0, 1, 1, 2, 1.8), (2, 2, 1, 1, 0, 0, 0, 1, -1)]),
    # a loop at 2, reached from 1: each of its half-edges adds 1 to L
    ([1, 3], [1, 0, 3, 2],
     [(1, 1, 1, 0, 0, 0, 2, 1, 1), (2, 2, 2, 0, 0, 2, 0, 2, -2)]),
])
def test_multigraph_traces_frozen(degrees, partner, want):
    t = explore_matching(DegreeSequence(degrees), Matching(partner), 1)
    assert rows(t) == want
    assert t.component == frozenset(range(1, len(degrees) + 1))
    assert check_trace(t, simple=False) == []


def test_explore_matching_agrees_on_simple_matchings():
    def fields(trace):
        return [(r.v, r.d_i, r.J, r.K, r.L, r.X, r.x_prev, r.X_star,
                 sorted(r.new_vertices)) for r in trace.records]

    walks = 0
    for degrees in graphical_multisets(8):
        seq = DegreeSequence(degrees)
        for matching in iter_matching_extensions(seq, Matching.empty(seq)):
            mg = matching_to_multigraph(seq, matching)
            if not mg.is_simple:
                continue
            g = mg.to_simple()
            for start in range(1, seq.n + 1):
                assert fields(explore_matching(seq, matching, start)) == \
                    fields(explore(g, start))
                walks += 1
    assert walks == 3380


def test_each_vertex_selected_at_most_once():
    for degs in ([3, 3, 3, 3], [1, 2, 2, 3], [2] * 6, [1, 1, 2, 2, 3, 3]):
        g = havel_hakimi_construct(DegreeSequence(degs))
        for s in range(1, g.n + 1):
            t = explore(g, s)
            vs = [r.v for r in t.records]
            assert len(vs) == len(set(vs))
            assert len(t.records) <= len(t.component)


def test_small_degree_cutoff():
    assert small_degree_cutoff(0) == math.inf
    assert small_degree_cutoff(1) == math.inf
    assert small_degree_cutoff(100) == pytest.approx(10 / math.log(100) ** 2)


def test_truncated_increment_branches():
    r1, r2, _ = explore(K4, 1).records
    # default cutoff at m = 6 is ~0.76, every degree takes the big branch
    assert truncated_increment(r1, 6) == 2.7
    assert truncated_increment(r1, 6, big_step_fraction=0.5) == 1.5
    # explicit cutoff forces the min branch: min(3 d, delta X)
    assert truncated_increment(r1, 6, cutoff=10) == min(9, 6 - 3)
    assert truncated_increment(r2, 6, cutoff=10) == min(6, 2 - 6)
    pad = r1._replace(d_i=0, X=0, x_prev=0)
    assert truncated_increment(pad, 6, cutoff=10) == 0


def test_padded_records():
    t = explore(K4, 1)
    padded = t.padded_records()
    assert len(padded) == t.m == 6
    assert [r.i for r in padded] == [1, 2, 3, 4, 5, 6]
    for r in padded[3:]:
        assert (r.v, r.d_i, r.J, r.K, r.L, r.X, r.x_prev, r.X_star) == \
            (0, 0, 0, 0, 0, 0, 0, 0)
        assert r.new_vertices == ()
    assert len(t.padded_records(10)) == 10
    assert len(t.padded_records(2)) == 3  # never truncates


def test_json_dict_round_trip_fields():
    t = explore(K4, 1)
    d = t.to_json_dict()
    assert d["start"] == 1 and d["m"] == 6 and d["died_at"] == 3
    assert d["component"] == [1, 2, 3, 4]
    assert d["records"][0] == {
        "i": 1, "v_i": 1, "d_i": 3, "J": 0, "K": 0, "L": 0, "X": 6,
        "X_star": 2.7, "new_vertices": [[2, 3], [3, 3], [4, 3]]}


def test_records_are_immutable_and_hashable():
    t = explore(K4, 1)
    r = t.records[0]
    with pytest.raises(AttributeError):
        r.X = 5
    assert hash(r) == hash(explore(K4, 1).records[0])
    assert r._replace(X=5) != r and r._replace(X=5).X == 5
    assert hash(t) == hash(explore(K4, 1))


def test_explore_is_deterministic():
    g = havel_hakimi_construct(DegreeSequence([3, 2, 2, 2, 3]))
    assert explore(g, 2) == explore(g, 2)


def test_component_matches_union_find():
    rng = substream(42, 0)
    for seq in (regular(3, 8), with_leaves(4, 3, 24), DegreeSequence([1, 1, 2, 2])):
        for _ in range(5):
            lo, hi, _ = sample_batch(seq, "rejection", 1, rng)
            g = SimpleGraph(seq.n, zip(lo[0].tolist(), hi[0].tolist()))
            comps = connected_components(g)
            by_vertex = {}
            for comp in comps:
                for v in comp:
                    by_vertex[v] = frozenset(comp)
            for s in range(1, g.n + 1):
                t = explore(g, s)
                assert t.component == by_vertex[s]
                assert check_trace(t) == []


def test_explore_components_partitions():
    g = SimpleGraph(7, [(1, 2), (3, 4), (3, 5), (4, 5), (6, 7)])
    traces = explore_components(g)
    assert [sorted(t.component) for t in traces] == [[1, 2], [3, 4, 5], [6, 7]]


def test_explore_components_replays_explore_per_component():
    # the walks of one call share per-vertex state; each trace must still be
    # the single-start walk
    rng = substream(7, 0)
    for seq in (with_leaves(12, 3, 40), DegreeSequence([1] * 40)):
        lo, hi, _ = sample_batch(seq, "rejection", 1, rng)
        g = SimpleGraph(seq.n, zip(lo[0].tolist(), hi[0].tolist()))
        traces = explore_components(g)
        assert traces == [explore(g, t.start) for t in traces]
        assert sorted(sorted(t.component) for t in traces) == \
            connected_components(g)


def test_checker_flags_corrupted_record():
    t = explore(K4, 1)
    good = check_trace(t)
    assert good == []
    bad = replace(t, records=(t.records[0],
                              t.records[1]._replace(X=5),
                              t.records[2]))
    msgs = check_trace(bad)
    assert msgs  # X=5 breaks the chain into record 3 at least
    assert any("chain" in m or "x_prev" in m for m in msgs)
    # J+K+L exceeding d_i is flagged
    bad2 = replace(t, records=(t.records[0]._replace(J=9),) + t.records[1:])
    assert any("J+K+L" in m for m in check_trace(bad2))


def test_multigraph_reveal_matches_enumeration():
    # 15 perfect matchings on (2,2,2); sample-and-replay must hit each
    # trace shape with its enumerated frequency
    seq = DegreeSequence([2, 2, 2])
    key = lambda t: tuple((r.d_i, r.J, r.K, r.L, r.X) for r in t.records)
    exact = Counter()
    for matching in iter_matching_extensions(seq, Matching.empty(seq)):
        exact[key(explore_matching(seq, matching, 1))] += 1
    total = sum(exact.values())
    assert total == 15
    rng = substream(17, 0)
    trials = 15000
    got = Counter()
    for _ in range(trials):
        trace, mg = explore_revealing(seq, rng, 1, mode="multigraph")
        got[key(trace)] += 1
        assert mg.degree_vector() == [2, 2, 2]
    assert set(got) == set(exact)
    for k, c in exact.items():
        assert abs(got[k] / trials - c / total) < 0.02


def test_simple_conditioned_reveal_matches_uniform():
    seq = DegreeSequence([2, 2, 2, 2])
    rng = substream(23, 0)
    trials = 3000
    counts = Counter()
    for _ in range(trials):
        trace, g = explore_revealing(seq, rng, 1, mode="simple-conditioned")
        counts[tuple(g.edges())] += 1
        assert trace == explore(g, 1)
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 0.04


def test_simple_conditioned_switch_chain_path():
    seq = DegreeSequence([2, 2, 2, 2])
    trace, g = explore_revealing(seq, substream(5, 0), 2,
                                 mode="simple-conditioned",
                                 sampler="switch-chain", steps=40)
    assert g.degree_vector() == [2, 2, 2, 2]
    assert trace == explore(g, 2)


@pytest.mark.parametrize("sampler", ["rejection", "switch-chain"])
def test_simple_conditioned_draws_one_batch_row(sampler):
    # draw order: one sample_batch call with count 1
    seq = with_leaves(4, 3, 24)
    _, g = explore_revealing(seq, substream(8, 0), 1,
                             mode="simple-conditioned", sampler=sampler)
    lo, hi, _ = sample_batch(seq, sampler, 1, substream(8, 0))
    assert g.edges() == list(zip(lo[0].tolist(), hi[0].tolist()))


def test_explore_errors():
    with pytest.raises(ValueError):
        explore(K4, 0)
    with pytest.raises(ValueError):
        explore(K4, 5)
    seq = DegreeSequence([2, 2, 2])
    with pytest.raises(ValueError):
        explore_matching(seq, Matching.empty(seq).with_pair(0, 2), 1)
    # full matchings on 4 and 8 half-edges do not fit the 6 of [2, 2, 2]
    for partner in ([1, 0, 3, 2], [1, 0, 3, 2, 5, 4, 7, 6]):
        with pytest.raises(ValueError, match="matching length does not fit"):
            explore_matching(seq, Matching(partner), 1)
    with pytest.raises(ValueError):
        explore_revealing(seq, substream(0, 0), 1, mode="nope")
    with pytest.raises(ValueError):
        explore_revealing(seq, substream(0, 0), 1,
                          mode="simple-conditioned", sampler="nope")
