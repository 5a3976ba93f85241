"""Degree-sequence feasibility, invariants, and parsing."""

import itertools
import json
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degconn import (DegreeSequence, NegativeDegree, NotGraphical, OddSum,
                     SequenceError, ZeroDegree, compute_invariants,
                     erdos_gallai, theorem1_bound, validate_sequence)
from degconn.degseq import parse_sequence_text
from degconn.families import regular
from degconn.exact import graphical_multisets
from degconn.exact import enumerate_realizations


def all_degree_vectors(max_n, max_d):
    for n in range(1, max_n + 1):
        for degs in itertools.combinations_with_replacement(
                range(1, min(max_d, n - 1) + 1 if n > 1 else 2), n):
            yield degs


def test_erdos_gallai_matches_networkx():
    checked = 0
    for degs in all_degree_vectors(7, 6):
        if sum(degs) % 2:
            continue
        assert erdos_gallai(degs) == nx.is_graphical(list(degs)), degs
        checked += 1
    assert checked > 100


def test_erdos_gallai_matches_realization_search():
    # independent route: a sequence is graphical iff some simple graph
    # realizes it
    for degs in all_degree_vectors(6, 5):
        if sum(degs) % 2:
            continue
        has_realization = next(iter(enumerate_realizations(list(degs))),
                               None) is not None
        assert erdos_gallai(degs) == has_realization, degs


def quadratic_erdos_gallai(degrees):
    """The O(n^2) test erdos_gallai replaced: every k-th inequality, each
    tail summed afresh.  Kept as the reference."""
    d = sorted(degrees, reverse=True)
    n = len(d)
    if n == 0 or sum(d) % 2:
        return False
    if d[0] > n - 1 or d[-1] < 0:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(k, di) for di in d[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def partitions(total, largest):
    """Non-increasing tuples of positive integers summing to `total`."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def test_erdos_gallai_matches_quadratic_test_exhaustively():
    # every positive multiset with sum <= 16, odd sums included, alone and
    # with zero degrees appended
    checked = graphical = 0
    for total in range(17):
        for degs in partitions(total, total):
            for padded in (degs, degs + (0,), degs + (0, 0)):
                want = quadratic_erdos_gallai(padded)
                assert erdos_gallai(padded) == want, padded
                checked += 1
                graphical += want
    assert checked == 2745 and graphical == 629


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1, 25), max_size=30))
def test_erdos_gallai_matches_quadratic_test(degs):
    assert erdos_gallai(degs) == quadratic_erdos_gallai(degs)


def test_erdos_gallai_is_fast_at_large_n():
    t0 = time.perf_counter()
    seq = regular(2, 100000)
    assert time.perf_counter() - t0 < 1.0
    assert seq.n == 100000 and seq.graphical
    assert not erdos_gallai([99999] * 2 + [1] * 99998)


def test_degree_sequence_basic_fields():
    s = DegreeSequence([3, 1, 2, 2])
    assert s.n == 4
    assert s.m == 4
    assert s.degrees == [3, 1, 2, 2]
    assert s.sorted_degrees == [1, 2, 2, 3]
    assert s.dmax == 3
    assert s.count(2) == 2 and s.count(5) == 0
    assert s.degree(1) == 3 and s.degree(4) == 2
    assert s.graphical


def test_constructor_rejections():
    with pytest.raises(OddSum):
        DegreeSequence([1, 1, 1])
    with pytest.raises(ZeroDegree):
        DegreeSequence([0, 2, 2])
    with pytest.raises(NegativeDegree):
        DegreeSequence([-1, 1])
    with pytest.raises(SequenceError):
        DegreeSequence([])


def test_constructor_refuses_non_integral_degrees():
    # a float used to be truncated ([2.7, 1.2, 1.9] became [2, 1, 1]) and a
    # string parsed
    for degrees in ([2.7, 1.2, 1.9], [2.0, 2, 2], ["2", "2", "2"]):
        with pytest.raises(TypeError):
            DegreeSequence(degrees)
    s = DegreeSequence(np.array([2, 2, 2], dtype=np.int64))
    assert s.degrees == [2, 2, 2]
    assert all(type(d) is int for d in s.degrees)
    assert DegreeSequence([np.int32(1), np.uint8(1)]).m == 1


def test_validate_sequence_graphicality():
    assert validate_sequence([2, 2, 2]).graphical
    with pytest.raises(NotGraphical):
        validate_sequence([3, 1])
    # even sum but infeasible stays constructible, only validation rejects
    assert not DegreeSequence([2, 2]).graphical


def test_invariants_frozen_values():
    # n = 10 three-regular: m = 15, n3 = 10
    inv = compute_invariants(DegreeSequence([3] * 10))
    assert inv.u_k4 == Fraction(7**4, 15**6) == Fraction(2401, 11390625)
    assert inv.u_k5_plus == Fraction(10, 15**6)
    assert inv.u_edge == 0 and inv.u_triangle == 0
    assert inv.u_triangle_pendant == 0 and inv.u_k4_minus_e == 0
    assert inv.d_star == 9
    assert inv.delta_star == 2
    assert theorem1_bound(inv) == Fraction(2411, 11390625)


def test_invariants_single_edge():
    inv = compute_invariants(DegreeSequence([1, 1]))
    assert inv.u_edge == 1
    assert inv.u_k5_plus == 2
    assert theorem1_bound(inv) == 3
    assert inv.d_star == 1
    assert inv.delta_star == 1


def test_invariants_k4():
    inv = compute_invariants(DegreeSequence([3, 3, 3, 3]))
    assert inv.u_k4 == Fraction(1, 6**6)
    assert inv.u_k5_plus == Fraction(4, 6**6)
    assert theorem1_bound(inv) == Fraction(5, 46656)


def test_invariants_mixed_sequence():
    # n1 = 2, n2 = 2, n3 = 2: all six terms engage
    s = DegreeSequence([1, 1, 2, 2, 3, 3])
    m = s.m
    assert m == 6
    inv = compute_invariants(s)
    assert inv.u_edge == Fraction(1, m)
    assert inv.u_triangle == 0  # max(n2 - 2, 0) = 0
    assert inv.u_triangle_pendant == Fraction(2 * 1 * 2, m**4)
    assert inv.u_k4_minus_e == Fraction(1 * 1, m**5)
    assert inv.u_k4 == 0
    assert inv.u_k5_plus == Fraction(6, m**6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=10)
       .filter(lambda d: sum(d) % 2 == 0))
def test_invariants_permutation_invariant(degs):
    base = compute_invariants(DegreeSequence(sorted(degs)))
    other = compute_invariants(DegreeSequence(list(reversed(sorted(degs)))))
    assert base == other


def test_d_star_bounds_neighbor_degree_sums():
    # d_star dominates every realized neighbor-degree sum, by construction
    for degs in all_degree_vectors(6, 5):
        if sum(degs) % 2 or not erdos_gallai(degs):
            continue
        seq = DegreeSequence(list(degs))
        d_star = compute_invariants(seq).d_star
        for edges in enumerate_realizations(list(degs)):
            adj = {v: [] for v in range(1, seq.n + 1)}
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            for v in range(1, seq.n + 1):
                assert sum(seq.degree(u) for u in adj[v]) <= d_star


def test_delta_star_cases():
    assert compute_invariants(DegreeSequence([1, 1, 2, 2])).delta_star == 1
    assert compute_invariants(DegreeSequence([2] * 6)).delta_star == 1
    assert compute_invariants(DegreeSequence([3] * 10)).delta_star == 2
    assert compute_invariants(DegreeSequence([5] * 12)).delta_star == 4


def test_parse_sequence_text():
    assert parse_sequence_text("3 3 3 3") == [3, 3, 3, 3]
    assert parse_sequence_text("[1, 2, 3]") == [1, 2, 3]
    assert parse_sequence_text(" 1\n1 ") == [1, 1]
    with pytest.raises(ValueError):
        parse_sequence_text("a b")
    with pytest.raises(ValueError):
        parse_sequence_text("")
    with pytest.raises(ValueError, match="array of integers"):
        parse_sequence_text("[true, 1]")


def test_load_sequence_file(tmp_path):
    from degconn.degseq import load_sequence_file
    p = tmp_path / "seq.txt"
    p.write_text("2 2 2 2\n")
    assert load_sequence_file(str(p)) == [2, 2, 2, 2]
    q = tmp_path / "seq.json"
    q.write_text(json.dumps([3, 3, 3, 3]))
    assert load_sequence_file(str(q)) == [3, 3, 3, 3]


def test_invariant_set_json_round_trip():
    inv = compute_invariants(DegreeSequence([3, 3, 3, 3]))
    d = inv.to_json_dict()
    assert d["u_k4"] == "1/46656"
    assert d["u_k4_float"] == pytest.approx(1 / 46656)
    assert d["d_star"] == 9
    json.dumps(d)  # serializable


def test_graphical_multisets_counts_and_membership():
    ms12 = graphical_multisets(12)
    ms16 = graphical_multisets(16)
    assert len(ms12) == 65
    assert len(ms16) == 209
    assert (1, 1) in ms12 and (2, 2, 2) in ms12 and (3, 3, 3, 3) in ms12
    assert (3, 1) not in ms16 and (2, 2) not in ms16
    assert set(ms12) <= set(ms16)
    # cross-check every candidate multiset against networkx
    def partitions(total, low=1):
        if total == 0:
            yield ()
            return
        for d in range(low, total + 1):
            for rest in partitions(total - d, d):
                yield (d,) + rest
    alt = {p for s in range(2, 17, 2) for p in partitions(s)
           if nx.is_graphical(list(p))}
    assert alt == set(ms16)
