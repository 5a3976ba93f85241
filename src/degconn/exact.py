"""Exact enumeration oracles over tiny degree sequences.

Three independent routes into the same ground truth, used to cross-check each
other and every sampler:

  * enumerate_realizations: every labeled simple graph with the degree vector,
    by pivot recursion on the lowest-labeled vertex with residual degree.
  * count_realizations: the same count by a memoized multiset recursion,
    without materializing graphs.
  * perfect matchings on half-edges: the configuration-model side, for
    matching-level expectations and conditional edge probabilities.

Everything here is deliberately exhaustive.  The oracles built on it
(conditional_edge_probability here, exact_connectivity_oracle and
exact_multigraph_edge_component_mean in census) refuse a sequence with more
than ENUMERATION_MAX_HALF_EDGES = 20 half-edges through check_enumerable.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

from .degseq import DegreeSequence, erdos_gallai
from .errors import NotExtendable, TooLarge
from .graphs import UNMATCHED, HalfEdge, Matching, half_edge_owner

ENUMERATION_MAX_HALF_EDGES = 20


def check_enumerable(seq: DegreeSequence) -> None:
    """Raise TooLarge when 2m exceeds ENUMERATION_MAX_HALF_EDGES."""
    if 2 * seq.m > ENUMERATION_MAX_HALF_EDGES:
        raise TooLarge(f"2m = {2 * seq.m} exceeds the enumeration limit of "
                       f"{ENUMERATION_MAX_HALF_EDGES} half-edges")


def enumerate_realizations(degrees: Sequence[int]) -> Iterator[List[Tuple[int, int]]]:
    """Yield the edge list of every labeled simple graph realizing `degrees`.

    Vertices are 1-indexed.  Edge lists come out lexicographically sorted and
    each graph appears exactly once: the recursion fixes the whole
    neighborhood of the lowest-labeled vertex with residual degree, so a graph
    is reproduced only from its own neighborhood decomposition.  The yielded
    list is reused between yields; callers must copy if they keep it.
    """
    n = len(degrees)
    res = list(degrees)
    if sum(res) % 2 or any(d < 0 or d > n - 1 for d in res):
        return
    edges: List[Tuple[int, int]] = []
    # adjacency bitmasks double as "forbidden partner" sets
    adj = [0] * (n + 1)

    def residual_ok() -> bool:
        live = [r for r in res if r > 0]
        if not live:
            return True
        if max(live) <= 1:
            # only degree-1 stubs left: always completable (count stays even)
            return True
        return erdos_gallai(live)

    def rec(start: int):
        v = start
        while v < n and res[v] == 0:
            v += 1
        if v == n:
            yield edges
            return
        need = res[v]
        res[v] = 0
        cand = [u for u in range(v + 1, n) if res[u] > 0 and not (adj[v] >> u) & 1]
        if need <= len(cand):
            for combo in itertools.combinations(cand, need):
                for u in combo:
                    res[u] -= 1
                    edges.append((v + 1, u + 1))
                    adj[v] |= 1 << u
                    adj[u] |= 1 << v
                if residual_ok():
                    yield from rec(v + 1)
                for u in combo:
                    res[u] += 1
                    edges.pop()
                    adj[v] &= ~(1 << u)
                    adj[u] &= ~(1 << v)
        res[v] = need

    yield from rec(0)


@lru_cache(maxsize=200000)
def _count_realizations_sorted(ms: Tuple[int, ...]) -> int:
    ms = tuple(x for x in ms if x > 0)
    if not ms:
        return 1
    d0 = ms[0]
    rest = ms[1:]
    if d0 > len(rest):
        return 0
    # group the rest by degree value; choose how many neighbors to take from
    # each class (all members of a class are interchangeable for counting)
    vals: List[int] = []
    mult: List[int] = []
    for x in rest:
        if vals and vals[-1] == x:
            mult[-1] += 1
        else:
            vals.append(x)
            mult.append(1)
    total = 0

    def pick(idx: int, need: int, ways: int, acc: List[int]):
        nonlocal total
        if need == 0:
            tail = []
            for j in range(idx, len(vals)):
                tail.extend([vals[j]] * mult[j])
            total += ways * _count_realizations_sorted(
                tuple(sorted(acc + tail, reverse=True)))
            return
        if idx == len(vals):
            return
        v, c = vals[idx], mult[idx]
        for k in range(min(c, need) + 1):
            pick(idx + 1, need - k,
                 ways * math.comb(c, k),
                 acc + [v - 1] * k + [v] * (c - k))

    pick(0, d0, 1, [])
    return total


def count_realizations(degrees: Sequence[int]) -> int:
    """Number of labeled simple graphs realizing the degree multiset."""
    if sum(degrees) % 2:
        return 0
    return _count_realizations_sorted(tuple(sorted(degrees, reverse=True)))


def graphical_multisets(max_half_edges: int) -> List[Tuple[int, ...]]:
    """Every graphical degree multiset (no zero degrees) with degree sum at
    most `max_half_edges`, as ascending tuples ordered by (sum, tuple)."""
    out: List[Tuple[int, ...]] = []
    parts: List[int] = []

    def rec(remaining: int, low: int):
        if parts and sum(parts) % 2 == 0 and erdos_gallai(parts):
            out.append(tuple(parts))
        for d in range(low, remaining + 1):
            parts.append(d)
            rec(remaining - d, d)
            parts.pop()

    rec(max_half_edges, 1)
    out.sort(key=lambda t: (sum(t), t))
    return out


def iter_perfect_matchings(ids: Sequence[int]) -> Iterator[List[Tuple[int, int]]]:
    """All perfect matchings of an even-sized id list ((k-1)!! of them).

    The yielded pair list is reused between yields.
    """
    ids = list(ids)
    if len(ids) % 2:
        return
    pairs: List[Tuple[int, int]] = []

    def rec(free: List[int]):
        if not free:
            yield pairs
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            pairs.append((a, b))
            yield from rec(free[1:i] + free[i + 1:])
            pairs.pop()

    yield from rec(ids)


def iter_matching_extensions(seq: DegreeSequence,
                             partial: Matching) -> Iterator[Matching]:
    """All full matchings extending `partial` (as fresh Matching objects)."""
    free = [h for h in range(2 * seq.m) if partial.partner[h] == UNMATCHED]
    base = list(partial.partner)
    for pairs in iter_perfect_matchings(free):
        partner = list(base)
        for a, b in pairs:
            partner[a], partner[b] = b, a
        yield Matching(partner)


def _matching_is_simple(seq: DegreeSequence, partner: Sequence[int]) -> bool:
    seen = set()
    for h, p in enumerate(partner):
        if p < h:
            continue
        u = half_edge_owner(seq, h)
        v = half_edge_owner(seq, p)
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def conditional_edge_probability(seq: DegreeSequence, partial: Matching,
                                 hv, hw) -> Fraction:
    """Exact P(hv matched to hw | partial submatching, result simple).

    hv and hw are global half-edge ids (HalfEdge objects also accepted).
    Probability over uniformly random full matchings extending `partial`,
    conditioned on the multigraph being simple.  Exhaustive, so guarded by
    check_enumerable.
    """
    check_enumerable(seq)
    a = hv.global_id if isinstance(hv, HalfEdge) else int(hv)
    b = hw.global_id if isinstance(hw, HalfEdge) else int(hw)
    if a == b:
        raise ValueError("hv and hw are the same half-edge")
    if half_edge_owner(seq, a) == half_edge_owner(seq, b):
        raise ValueError("hv and hw must have distinct owners")
    for h in (a, b):
        if partial.partner[h] != UNMATCHED:
            raise ValueError(f"half-edge {h} already matched")
    simple = 0
    hit = 0
    for matching in iter_matching_extensions(seq, partial):
        if not _matching_is_simple(seq, matching.partner):
            continue
        simple += 1
        if matching.partner[a] == b:
            hit += 1
    if simple == 0:
        raise NotExtendable("partial matching has no simple extension")
    return Fraction(hit, simple)
