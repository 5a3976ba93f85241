"""Exact oracles over small degree sequences: enumeration and counting.

Three independent routes into the same ground truth, used to cross-check each
other and every sampler:

  * enumerate_realizations: every labeled simple graph with the degree vector,
    by pivot recursion on the lowest-labeled vertex with residual degree.
  * ClassCounter: counts over degree-class vectors without materializing
    graphs.  count_realizations is the max-degree recursion R(c), and
    count_connectivity adds the connected count C(c) by inclusion-exclusion
    on one vertex's component, and the component totals of every degree
    multiset.  Its memos live for one call.  A sequence too long for the
    interpreter's stack raises TooLarge, never RecursionError.
  * perfect matchings on half-edges: the configuration-model side, for
    matching-level expectations and conditional edge probabilities.

Which oracles count and which enumerate: exact_connectivity_oracle (in
census) counts through count_connectivity; conditional_edge_probability here
enumerates matchings; exact_multigraph_edge_component_mean (in census) is a
closed form.  enumerate_realizations with census.connected_components stays
the reference the tests hold the counting route to.  The first two refuse a
sequence with more than ENUMERATION_MAX_HALF_EDGES = 20 half-edges through
check_enumerable; counting would reach further, but the guard is unchanged.
conditional_edge_probability also refuses more than EXTENSION_MAX = (15)!!
extensions: 20 free half-edges would take hours.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from .degseq import DegreeSequence, erdos_gallai
from .errors import NotExtendable, TooLarge
from .graphs import UNMATCHED, Matching, half_edge_owner, owner_array

ENUMERATION_MAX_HALF_EDGES = 20
# most extensions conditional_edge_probability walks: (15)!!, 16 free half-edges
EXTENSION_MAX = 2_027_025


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


def _class_vector(degrees: Sequence[int]) -> Tuple[int, ...]:
    """The degree multiset as a class-count vector: c[d] is the number of
    entries equal to d, for d = 0..max(degrees)."""
    c = [0] * (max(degrees, default=0) + 1)
    for d in degrees:
        c[d] += 1
    return tuple(c)


class ClassCounter:
    """Counting engine over degree-class vectors, with no enumeration.

    A class vector c has c[d] vertices of degree d, d = 0..len(c)-1.  All
    vertices of one class are interchangeable for counting, so the number of
    labeled simple graphs realizing c, R(c), and the number of connected
    ones, C(c), depend on c alone.  The memos live as long as the instance:
    make one per computation.
    """

    def __init__(self) -> None:
        self._realizations: Dict[Tuple[int, ...], int] = {}

    def realizations(self, c: Tuple[int, ...]) -> int:
        """R(c), by the max-degree recursion: a vertex of the highest
        degree d takes k_j neighbors from each class j (binom(c_j, k_j)
        ways, k summing to d), which then drop to class j - 1."""
        memo = self._realizations
        got = memo.get(c)
        if got is not None:
            return got
        top = len(c) - 1
        while top and not c[top]:
            top -= 1
        if not top:
            memo[c] = 1
            return 1
        rest = list(c)
        rest[top] -= 1
        rest[0] = 0
        below = list(itertools.accumulate(rest))  # below[d]: rest[1..d]
        if below[top] < top:
            memo[c] = 0
            return 0
        new = [0] * len(c)
        total = 0

        def pick(d: int, need: int, ways: int, carry: int) -> None:
            # class d: keep rest[d] - k, gain the carry from class d + 1
            nonlocal total
            if not need:
                new[d] = rest[d] + carry
                new[1:d] = rest[1:d]
                total += ways * self.realizations(tuple(new))
                return
            for k in range(max(0, need - below[d - 1]),
                           min(rest[d], need) + 1):
                new[d] = rest[d] - k + carry
                pick(d - 1, need - k, ways * math.comb(rest[d], k), k)

        pick(top, top, 1, 0)
        memo[c] = total
        return total

    def connectivity(self, c: Tuple[int, ...]
                     ) -> Tuple[int, int, Dict[Tuple[int, ...], int]]:
        """(R(c), C(c), component totals) for the class vector c.

        C comes from inclusion-exclusion on the component of one fixed
        vertex v1: C(s) = R(s) - sum over sub-vectors t of s that contain
        v1, t != s, of ways(t) C(t) R(s - t), where ways(t) chooses the
        other members of t.  A sub-vector t <= s precedes s in the product
        order, so one pass over the sub-vectors of c fills C.  The totals
        map each component degree multiset (an ascending tuple) to its
        number of components summed over all realizations of c:
        prod binom(c_d, s_d) C(s) R(c - s).
        """
        classes = [d for d, k in enumerate(c) if k]
        sizes = [c[d] for d in classes]
        width = len(c)

        def full(s: Sequence[int]) -> Tuple[int, ...]:
            out = [0] * width
            for d, k in zip(classes, s):
                out[d] = k
            return tuple(out)

        def odd(s: Sequence[int]) -> bool:
            return sum(d * k for d, k in zip(classes, s)) % 2 == 1

        conn: Dict[Tuple[int, ...], int] = {}
        for s in itertools.product(*(range(k + 1) for k in sizes)):
            if not any(s) or odd(s):
                continue
            # v1 lies in the smallest class of s: fewest sub-vectors to sum
            j0 = min((j for j, k in enumerate(s) if k), key=s.__getitem__)
            ranges = [range(1 if j == j0 else 0, k + 1)
                      for j, k in enumerate(s)]
            value = self.realizations(full(s))
            for t in itertools.product(*ranges):
                ct = conn.get(t)
                if not ct or t == s:
                    continue
                ways = math.comb(s[j0] - 1, t[j0] - 1)
                for j, (a, b) in enumerate(zip(s, t)):
                    if j != j0:
                        ways *= math.comb(a, b)
                value -= ways * ct * self.realizations(
                    full([a - b for a, b in zip(s, t)]))
            if value:
                conn[s] = value
        totals: Dict[Tuple[int, ...], int] = {}
        for s, cs in conn.items():
            k = cs * self.realizations(
                full([a - b for a, b in zip(sizes, s)]))
            if k:
                for a, b in zip(sizes, s):
                    k *= math.comb(a, b)
                totals[tuple(d for d, b in zip(classes, s)
                             for _ in range(b))] = k
        return (self.realizations(c), conn.get(tuple(sizes), 0), totals)


def _counted(method, degrees: Sequence[int]):
    """method(ClassCounter(), class vector of `degrees`), with TooLarge in
    place of a RecursionError."""
    try:
        return method(ClassCounter(), _class_vector(degrees))
    except RecursionError:
        raise TooLarge(f"counting over {len(degrees)} vertices recurses past "
                       f"the limit of {sys.getrecursionlimit()}") from None


def count_realizations(degrees: Sequence[int]) -> int:
    """Number of labeled simple graphs realizing the degree multiset."""
    if sum(degrees) % 2 or any(d < 0 for d in degrees):
        return 0
    return _counted(ClassCounter.realizations, degrees)


def count_connectivity(degrees: Sequence[int]
                       ) -> Tuple[int, int, Dict[Tuple[int, ...], int]]:
    """(realizations, connected realizations, component totals) of a
    nonnegative degree multiset, counted over class vectors by
    ClassCounter.connectivity, which also describes the totals."""
    return _counted(ClassCounter.connectivity, degrees)


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


def _matching_is_simple(owner: Sequence[int], partner: Sequence[int]) -> bool:
    """Whether a full matching projects to a simple graph (owner[h]: h's owner)."""
    seen = set()
    for h, p in enumerate(partner):
        if p < h:
            continue
        u, v = owner[h], owner[p]
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def conditional_edge_probability(seq: DegreeSequence, partial: Matching,
                                 hv: int, hw: int) -> Fraction:
    """Exact P(hv matched to hw | partial submatching, result simple).

    hv and hw are global half-edge ids.  Probability over uniformly random
    full matchings extending `partial`, conditioned on the multigraph being
    simple.  Exhaustive, so guarded twice: check_enumerable first, then
    TooLarge when the f free half-edges have more than EXTENSION_MAX =
    (15)!! extensions ((f - 1)!! of them).
    """
    check_enumerable(seq)
    free = partial.partner.count(UNMATCHED)
    extensions = math.prod(range(free - 1, 0, -2))
    if extensions > EXTENSION_MAX:
        raise TooLarge(f"{free} free half-edges have {extensions} "
                       f"extensions, over the limit of {EXTENSION_MAX}")
    a, b = int(hv), int(hw)
    if a == b:
        raise ValueError("hv and hw are the same half-edge")
    if half_edge_owner(seq, a) == half_edge_owner(seq, b):
        raise ValueError("hv and hw must have distinct owners")
    for h in (a, b):
        if partial.partner[h] != UNMATCHED:
            raise ValueError(f"half-edge {h} already matched")
    owner = owner_array(seq).tolist()
    simple = 0
    hit = 0
    for matching in iter_matching_extensions(seq, partial):
        if _matching_is_simple(owner, matching.partner):
            simple += 1
            hit += matching.partner[a] == b
    if simple == 0:
        raise NotExtendable("partial matching has no simple extension")
    return Fraction(hit, simple)
