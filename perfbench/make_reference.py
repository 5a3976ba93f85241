"""Write oracle_reference.json: exact connectivity answers for every
graphical degree multiset with at most MAX_HALF_EDGES half-edges.

The answers are computed here without degconn, by enumerating the simple
perfect matchings of the half-edges: every labeled simple graph arises from
exactly prod(d!) of them, so P(connected) is the connected share of the
simple matchings and the realization count is their number over prod(d!).
The oracle-sweep workload checks exact_connectivity_oracle against this file.

    python3 perfbench/make_reference.py
"""

import json
import math
from fractions import Fraction
from pathlib import Path

MAX_HALF_EDGES = 12
OUT = Path(__file__).resolve().parent / "oracle_reference.json"


def graphical(degrees):
    d = sorted(degrees, reverse=True)
    n = len(d)
    if sum(d) % 2 or d[0] > n - 1:
        return False
    return all(sum(d[:k]) <= k * (k - 1) + sum(min(k, x) for x in d[k:])
               for k in range(1, n + 1))


def multisets(max_half_edges):
    out = []

    def rec(parts, low, remaining):
        if parts and graphical(parts):
            out.append(tuple(parts))
        for d in range(low, remaining + 1):
            rec(parts + [d], d, remaining - d)

    rec([], 1, max_half_edges)
    return sorted(out, key=lambda t: (sum(t), t))


def connected(n, edges):
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def simple_matching_counts(degrees):
    """(simple matchings, connected simple matchings) of the half-edges."""
    owner = [v for v, d in enumerate(degrees) for _ in range(d)]
    free = [True] * len(owner)
    edges = []
    counts = [0, 0]

    def rec():
        a = next((h for h, f in enumerate(free) if f), None)
        if a is None:
            counts[0] += 1
            counts[1] += connected(len(degrees), edges)
            return
        free[a] = False
        for b in range(a + 1, len(owner)):
            edge = tuple(sorted((owner[a], owner[b])))
            if not free[b] or edge[0] == edge[1] or edge in edges:
                continue
            free[b] = False
            edges.append(edge)
            rec()
            edges.pop()
            free[b] = True
        free[a] = True

    rec()
    return counts


def main():
    table = {}
    for degrees in multisets(MAX_HALF_EDGES):
        simple, conn = simple_matching_counts(degrees)
        labelings = math.prod(math.factorial(d) for d in degrees)
        p = Fraction(conn, simple)
        table[",".join(map(str, degrees))] = {
            "probability_connected": f"{p.numerator}/{p.denominator}",
            "realization_count": simple // labelings,
        }
    OUT.write_text(json.dumps({"max_half_edges": MAX_HALF_EDGES,
                               "sequences": table}, indent=1) + "\n")
    print(f"wrote {len(table)} sequences to {OUT.name}")


if __name__ == "__main__":
    main()
