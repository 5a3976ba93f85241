"""Degree-sequence representation, feasibility checking, and closed-form invariants.

A degree sequence here is a list of positive integer degrees indexed by vertex
label 1..n.  Feasibility (realizability by a simple graph) is decided by the
Erdos-Gallai criterion.  The invariant set collects the six closed-form
disconnection-probability bounds (one per small-component type), the
neighbor-degree-sum bound d_star, and the low-degree class index delta_star.

All invariants are computed in exact rational arithmetic (fractions.Fraction,
arbitrary precision) with float mirrors for reporting.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List

from .errors import NegativeDegree, NotGraphical, OddSum, ZeroDegree

# delta_star is clamped into [1, DELTA_STAR_CAP]; the cumulative-count threshold
# is n / LOW_DEGREE_DENOM.  At desk scale n / 10**24 < 1, so the threshold only
# admits empty degree classes.
DELTA_STAR_CAP = 10**6
LOW_DEGREE_DENOM = 10**24


def erdos_gallai(degrees: Iterable[int]) -> bool:
    """Erdos-Gallai test: True iff the (even-sum) degree list is graphical.

    With d sorted non-increasing, the k-th inequality
    d_1 + ... + d_k <= k(k-1) + sum_{i>k} min(k, d_i) is checked only where
    the degree drops (d_k > d_{k+1}) and at k = n, which suffices (Tripathi
    & Vijay, Discrete Math. 2003).  The tail sum is kept by a pointer p to
    the last degree >= k, which only moves left, so the test is linear
    after the sort.
    """
    d = sorted(degrees, reverse=True)
    n = len(d)
    total = sum(d)
    if n == 0 or total % 2:
        return False
    if d[0] > n - 1 or d[-1] < 0:
        return False
    prefix = 0
    p = n  # d[:p] are the degrees >= k
    below = 0  # sum(d[p:])
    for k in range(1, n + 1):
        prefix += d[k - 1]
        if k < n and d[k] == d[k - 1]:
            continue
        while p and d[p - 1] < k:
            p -= 1
            below += d[p]
        # sum_{i>k} min(k, d_i): d[k:p] count k each, the rest in full
        tail = k * (p - k) + below if p > k else total - prefix
        if prefix > k * (k - 1) + tail:
            return False
    return True


class DegreeSequence:
    """Validated degree multiset with cached aggregates.

    Each degree is read through operator.index, so Python and numpy integers
    pass and a float or a string raises TypeError instead of being truncated
    or parsed.  Construction enforces positivity and even sum; graphicality
    is checked by validate_sequence() (the configuration model is happy to
    run on even-sum sequences with no simple realization, so the type allows
    them).
    """

    __slots__ = ("degrees", "n", "m", "counts", "dmax", "sorted_degrees",
                 "_graphical", "half_edge_offsets")

    def __init__(self, degrees: Iterable[int]):
        degs = [operator.index(d) for d in degrees]
        if not degs:
            raise ZeroDegree("empty degree list")
        for d in degs:
            if d < 0:
                raise NegativeDegree(f"degree {d} < 0")
            if d == 0:
                raise ZeroDegree("degree-0 vertex is out of model")
        total = sum(degs)
        if total % 2:
            raise OddSum(f"degree sum {total} is odd")
        self.degrees: List[int] = degs
        self.n = len(degs)
        self.m = total // 2
        self.sorted_degrees = sorted(degs)
        counts: Dict[int, int] = {}
        for d in degs:
            counts[d] = counts.get(d, 0) + 1
        self.counts = counts
        self.dmax = self.sorted_degrees[-1]
        self._graphical = None
        # half-edge global id = offset[owner-1] + slot, owners in label order
        offsets = [0] * (self.n + 1)
        for i, d in enumerate(degs):
            offsets[i + 1] = offsets[i] + d
        self.half_edge_offsets = offsets

    def count(self, i: int) -> int:
        """n_i: number of vertices of degree exactly i."""
        return self.counts.get(i, 0)

    @property
    def graphical(self) -> bool:
        if self._graphical is None:
            self._graphical = erdos_gallai(self.degrees)
        return self._graphical

    def degree(self, v: int) -> int:
        """Degree of vertex label v (1-indexed)."""
        return self.degrees[v - 1]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, DegreeSequence) and self.degrees == other.degrees

    def __hash__(self):
        return hash(tuple(self.degrees))

    def __repr__(self) -> str:
        return f"DegreeSequence({self.degrees})"


def validate_sequence(degrees: Iterable[int]) -> DegreeSequence:
    """Build a DegreeSequence, additionally requiring graphicality."""
    seq = DegreeSequence(degrees)
    if not seq.graphical:
        raise NotGraphical(f"{seq.degrees} fails the Erdos-Gallai criterion")
    return seq


@dataclass(frozen=True)
class InvariantSet:
    """The six u-invariants plus d_star and delta_star for one sequence.

    u values are exact Fractions; to_json_dict() adds float mirrors.
    """

    FIELDS = ("u_edge", "u_triangle", "u_triangle_pendant",
              "u_k4_minus_e", "u_k4", "u_k5_plus")

    u_edge: Fraction
    u_triangle: Fraction
    u_triangle_pendant: Fraction
    u_k4_minus_e: Fraction
    u_k4: Fraction
    u_k5_plus: Fraction
    d_star: int
    delta_star: int

    def to_json_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in self.FIELDS:
            frac: Fraction = getattr(self, name)
            out[name] = f"{frac.numerator}/{frac.denominator}"
            out[name + "_float"] = float(frac)
        out["d_star"] = self.d_star
        out["delta_star"] = self.delta_star
        return out


def compute_invariants(seq: DegreeSequence) -> InvariantSet:
    """Evaluate every closed-form invariant of the sequence exactly."""
    n, m = seq.n, seq.m
    n1, n2, n3 = seq.count(1), seq.count(2), seq.count(3)
    u_edge = Fraction(max(n1 - 1, 0) ** 2, m)
    u_triangle = Fraction(max(n2 - 2, 0) ** 3, m**3)
    u_triangle_pendant = Fraction(n1 * max(n2 - 1, 0) ** 2 * n3, m**4)
    u_k4_minus_e = Fraction(max(n2 - 1, 0) ** 2 * max(n3 - 1, 0) ** 2, m**5)
    u_k4 = Fraction(max(n3 - 3, 0) ** 4, m**6)
    u_k5_plus = Fraction(n, m**6)
    # d_star: sum of the dmax largest degrees (nondecreasing ordering tail)
    d_star = sum(seq.sorted_degrees[-seq.dmax:])
    return InvariantSet(u_edge, u_triangle, u_triangle_pendant,
                        u_k4_minus_e, u_k4, u_k5_plus,
                        d_star, _delta_star(seq))


def _delta_star(seq: DegreeSequence) -> int:
    """Largest degree class k whose cumulative count n_1+..+n_k stays within
    n / 10^24, clamped into [1, 10^6].

    The max clause can be empty (already n_1 over threshold); it is then taken
    as 0 and clamped up to 1.  Note the clamp floor only engages for sequences
    with a degree-1 vertex at desk scale: when n_1 = 0 the empty low-degree
    classes themselves satisfy the threshold, so e.g. a 3-regular sequence has
    delta_star = 2, not 1.
    """
    threshold = Fraction(seq.n, LOW_DEGREE_DENOM)
    best = 0
    cumulative = 0
    for k in range(1, DELTA_STAR_CAP + 1):
        cumulative += seq.count(k)
        if cumulative <= threshold:
            best = k
        else:
            break
    return min(DELTA_STAR_CAP, max(best, 1))


def theorem1_bound(inv: InvariantSet) -> Fraction:
    """Sum of the six u-invariants: the raw disconnection-probability bound
    (the constant in front is estimated empirically by the census module)."""
    return (inv.u_edge + inv.u_triangle + inv.u_triangle_pendant
            + inv.u_k4_minus_e + inv.u_k4 + inv.u_k5_plus)


def parse_sequence_text(text: str) -> List[int]:
    """Parse a degree sequence from JSON-array or whitespace-separated text."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty sequence input")
    if stripped.startswith("["):
        data = json.loads(stripped)
        # JSON true and false load as bool, which isinstance(x, int) admits
        if not isinstance(data, list) or any(type(x) is not int for x in data):
            raise ValueError("JSON sequence must be an array of integers")
        return list(data)
    try:
        return [int(tok) for tok in stripped.split()]
    except ValueError as exc:
        raise ValueError(f"bad degree token in {stripped!r}") from exc


def load_sequence_file(path: str) -> List[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence_text(fh.read())
