"""Half-edges, matchings, and the two graph types the samplers produce.

Half-edge global ids are fixed by degree prefix sums over vertex labels
1..n: vertex v owns ids offsets[v-1] .. offsets[v]-1, slot s mapping to id
offsets[v-1]+s.  This makes every trace and serialized matching reproducible
across runs given the same random stream.  A half-edge is its global id, an
int; owner_array maps every id to its owner at once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .degseq import DegreeSequence
from .errors import PartialMatching

UNMATCHED = -1


def half_edge(seq: DegreeSequence, owner: int, slot: int) -> int:
    """Global id of slot `slot` of vertex `owner`."""
    if not 1 <= owner <= seq.n:
        raise ValueError(f"owner {owner} out of range 1..{seq.n}")
    if not 0 <= slot < seq.degree(owner):
        raise ValueError(f"slot {slot} out of range for vertex {owner}")
    return seq.half_edge_offsets[owner - 1] + slot


def half_edge_owner(seq: DegreeSequence, global_id: int) -> int:
    """Vertex label owning a global half-edge id."""
    if not 0 <= global_id < 2 * seq.m:
        raise ValueError(f"half-edge id {global_id} out of range")
    return bisect_right(seq.half_edge_offsets, global_id)


def owner_array(seq: DegreeSequence) -> np.ndarray:
    """owner_array[h] = 1-indexed owner of half-edge id h."""
    return np.repeat(np.arange(1, seq.n + 1, dtype=np.int32),
                     np.asarray(seq.degrees, dtype=np.int32))


class Matching:
    """Perfect (or partial) matching on half-edge ids as a partner array.

    partner[h] == UNMATCHED marks h unmatched; otherwise the array is a
    fixed-point-free involution on the matched ids.
    """

    __slots__ = ("partner",)

    def __init__(self, partner: Sequence[int]):
        self.partner = list(partner)
        self.validate()

    @classmethod
    def empty(cls, seq: DegreeSequence) -> "Matching":
        return cls([UNMATCHED] * (2 * seq.m))

    def validate(self) -> None:
        for h, p in enumerate(self.partner):
            if p == UNMATCHED:
                continue
            if p == h:
                raise ValueError(f"half-edge {h} matched to itself")
            if not 0 <= p < len(self.partner) or self.partner[p] != h:
                raise ValueError(f"partner array not an involution at {h}")

    @property
    def is_full(self) -> bool:
        return UNMATCHED not in self.partner

    def pairs(self) -> List[Tuple[int, int]]:
        """Matched id pairs (h, partner[h]) with h < partner[h]."""
        return [(h, p) for h, p in enumerate(self.partner)
                if p != UNMATCHED and h < p]

    def with_pair(self, a: int, b: int) -> "Matching":
        """New matching with the extra pair (a, b)."""
        if a == b:
            raise ValueError("cannot match a half-edge to itself")
        if self.partner[a] != UNMATCHED or self.partner[b] != UNMATCHED:
            raise ValueError("half-edge already matched")
        out = list(self.partner)
        out[a], out[b] = b, a
        return Matching(out)

    def __len__(self):
        return len(self.partner)

    def __eq__(self, other):
        return isinstance(other, Matching) and self.partner == other.partner

    def __repr__(self):
        return f"Matching({self.partner})"


class MultiGraph:
    """Multigraph on 1..n: edge multiset with loops, degrees count loops twice."""

    __slots__ = ("n", "edge_counts")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        self.n = n
        counts: Counter = Counter()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range")
            counts[(min(u, v), max(u, v))] += 1
        self.edge_counts = counts

    def degree(self, v: int) -> int:
        total = 0
        for (a, b), c in self.edge_counts.items():
            if a == v:
                total += c
            if b == v:
                total += c  # loop contributes twice via both branches
        return total

    def degree_vector(self) -> List[int]:
        degs = [0] * self.n
        for (a, b), c in self.edge_counts.items():
            degs[a - 1] += c
            degs[b - 1] += c
        return degs

    @property
    def is_simple(self) -> bool:
        return all(a != b and c == 1 for (a, b), c in self.edge_counts.items())

    def loop_count(self) -> int:
        return sum(c for (a, b), c in self.edge_counts.items() if a == b)

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted edge list with multiplicity (loops once per occurrence)."""
        out = []
        for (a, b) in sorted(self.edge_counts):
            out.extend([(a, b)] * self.edge_counts[(a, b)])
        return out

    def to_simple(self) -> "SimpleGraph":
        if not self.is_simple:
            raise ValueError("multigraph has loops or parallel edges")
        return SimpleGraph(self.n, self.edges())

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={self.edges()})"


class SimpleGraph:
    """Loop-free, parallel-edge-free labeled graph with sorted adjacency."""

    __slots__ = ("n", "m", "adj", "_edge_set")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        self.n = n
        adj: List[List[int]] = [[] for _ in range(n + 1)]
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u} in simple graph")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in edge_set:
                raise ValueError(f"duplicate edge {key}")
            edge_set.add(key)
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self.adj = adj
        self._edge_set = edge_set
        self.m = len(edge_set)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_vector(self) -> List[int]:
        return [len(self.adj[v]) for v in range(1, self.n + 1)]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    def neighbors(self, v: int) -> List[int]:
        return self.adj[v]

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted (u, v) pairs with u < v."""
        return sorted(self._edge_set)

    def canonical_key(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self.edges())

    def to_edge_list_text(self) -> str:
        """One "u v" pair per line, 1-indexed, u < v."""
        return "".join(f"{u} {v}\n" for u, v in self.edges())

    @classmethod
    def from_edge_list_text(cls, text: str, n: int = None) -> "SimpleGraph":
        edges = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            u, v = (int(t) for t in line.split())
            edges.append((u, v))
        if n is None:
            n = max((max(u, v) for u, v in edges), default=0)
        return cls(n, edges)

    def __eq__(self, other):
        return (isinstance(other, SimpleGraph) and self.n == other.n
                and self._edge_set == other._edge_set)

    def __hash__(self):
        return hash((self.n, frozenset(self._edge_set)))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={self.edges()})"


def matching_to_multigraph(seq: DegreeSequence, matching: Matching) -> MultiGraph:
    """Projection of a full matching to its half-edge labelled multigraph."""
    if len(matching) != 2 * seq.m:
        raise ValueError("matching length does not fit the sequence")
    if not matching.is_full:
        raise PartialMatching("matching has unmatched half-edges")
    owner = owner_array(seq).tolist()
    return MultiGraph(seq.n, [(owner[h], owner[p])
                              for h, p in matching.pairs()])
