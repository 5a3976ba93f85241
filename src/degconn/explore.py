"""The instrumented component-exploration process.

Starting from one vertex, iteration i selects the tree vertex v_i with the
fewest open half-edges (smallest label on ties) and exposes all of them.  For
each exposure the partner vertex w is classified: already explored -> L_i,
new of degree 1 -> J_i, new of degree 2 -> K_i (classification always by
d(w); a partner in the explored part takes the L class).  X_i tracks the
total open half-edge count; the component is fully explored when X hits 0.

One walk serves both deterministic replays: `explore` walks a fixed simple
graph (neighbors in ascending label order) and `explore_matching` walks a
fixed perfect matching on half-edges (partners in ascending slot order).  An
edge is exposed when its first endpoint is selected, so a step skips the
partners that were selected before it; each half-edge of a loop at v_i adds
1 to L_i and takes 1 from X_i, so the loop adds 2 to L_i.
`explore_revealing` samples the object first and replays, which has exactly
the law of revealing partners one at a time.

Each step is an `IterationRecord`, a NamedTuple: immutable, hashable, and
cheap to build positionally, which the walk does once per step.  A changed
copy is `record._replace(X=5)`.  The per-component `ExplorationTrace` is a
frozen dataclass.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .census import sample_batch
from .degseq import DegreeSequence
from .graphs import Matching, SimpleGraph, matching_to_multigraph, owner_array
from .sampler import DEFAULT_MAX_ATTEMPTS, chain_steps, random_matching

# X* truncation parameters; kept as named constants so experiments can vary
# them through truncated_increment's keyword arguments.
BIG_STEP_FRACTION = 0.9


def small_degree_cutoff(m: int) -> float:
    """sqrt(m) / (ln m)^2; +inf at m <= 1 (the min-branch applies to all d)."""
    if m <= 1:
        return math.inf
    return math.sqrt(m) / (math.log(m) ** 2)


class IterationRecord(NamedTuple):
    """One step of the walk.  A NamedTuple (immutable, hashable, compared as
    a tuple); build a changed copy with `record._replace(field=value)`."""

    i: int
    v: int
    d_i: int
    J: int
    K: int
    L: int
    X: int
    x_prev: int
    X_star: float
    new_vertices: Tuple[Tuple[int, int], ...]  # (vertex, degree) added this step


@dataclass(frozen=True)
class ExplorationTrace:
    start: int
    records: Tuple[IterationRecord, ...]
    component: frozenset
    died_at: int
    m: int

    def padded_records(self, length: Optional[int] = None) -> List[IterationRecord]:
        """Records padded with zero steps to `length` (default m): the walk
        formally takes m steps, with X frozen at 0 after death."""
        length = self.m if length is None else length
        out = list(self.records)
        i = len(out)
        while i < length:
            i += 1
            out.append(IterationRecord(i, 0, 0, 0, 0, 0, 0, 0, 0, ()))
        return out

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["i", "v_i", "d_i", "J", "K", "L", "X", "X_star"])
        for r in self.records:
            w.writerow([r.i, r.v, r.d_i, r.J, r.K, r.L, r.X, r.X_star])
        return buf.getvalue()

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "m": self.m,
            "died_at": self.died_at,
            "component": sorted(self.component),
            "records": [
                {"i": r.i, "v_i": r.v, "d_i": r.d_i, "J": r.J, "K": r.K,
                 "L": r.L, "X": r.X, "X_star": r.X_star,
                 "new_vertices": [[v, d] for v, d in r.new_vertices]}
                for r in self.records
            ],
        }


def _x_star(d_i: int, dx: int, cutoff: float,
            big_step_fraction: float = BIG_STEP_FRACTION):
    """The X* formula shared by truncated_increment and the walk."""
    if d_i < cutoff:
        return min(3 * d_i, dx)
    return big_step_fraction * d_i


def truncated_increment(record: IterationRecord, m: int,
                        big_step_fraction: float = BIG_STEP_FRACTION,
                        cutoff: Optional[float] = None):
    """X*_i: min(3 d_i, X_i - X_{i-1}) when d_i is below the small-degree
    cutoff sqrt(m)/(ln m)^2, else big_step_fraction * d_i.  Padded post-death
    records (d_i = 0) evaluate to 0."""
    thr = small_degree_cutoff(m) if cutoff is None else cutoff
    return _x_star(record.d_i, record.X - record.x_prev, thr,
                   big_step_fraction)


def _walks(partners: Sequence[Sequence[int]], starts: Iterable[int],
           m: int) -> Iterator[ExplorationTrace]:
    """The exploration walk from each of `starts` that no earlier walk
    reached.  partners[v] lists the far end of each of v's edges in exposure
    order, with v itself once per loop half-edge, so len(partners[u]) is u's
    degree; m is the edge count.  Components are disjoint, so the walks share
    one set of per-vertex arrays."""
    n = len(partners) - 1
    open_ = [0] * (n + 1)
    in_tree = [False] * (n + 1)
    selected = [False] * (n + 1)
    cutoff = small_degree_cutoff(m)
    for start in starts:
        if not 1 <= start <= n:
            raise ValueError(f"start {start} out of range")
        if in_tree[start]:
            continue
        X = open_[start] = len(partners[start])
        in_tree[start] = True
        tree = [start]
        heap = [(X, start)]
        records: List[IterationRecord] = []
        while X > 0:
            # lazy deletion: entries whose count went stale are dropped
            d_i, v = heappop(heap)
            while open_[v] != d_i:
                d_i, v = heappop(heap)
            x_prev = X
            J = K = L = 0
            newv: List[Tuple[int, int]] = []
            for u in partners[v]:
                if selected[u]:
                    continue  # exposed when u was selected
                if u == v:
                    L += 1  # one half-edge of a loop
                    X -= 1
                elif in_tree[u]:
                    L += 1
                    X -= 2
                    open_[u] -= 1
                    if open_[u]:
                        heappush(heap, (open_[u], u))
                else:
                    du = len(partners[u])
                    in_tree[u] = True
                    tree.append(u)
                    if du == 1:
                        J += 1
                    elif du == 2:
                        K += 1
                    X += du - 2
                    open_[u] = du - 1
                    if du > 1:
                        heappush(heap, (du - 1, u))
                    newv.append((u, du))
            selected[v] = True
            open_[v] = 0
            records.append(IterationRecord(
                len(records) + 1, v, d_i, J, K, L, X, x_prev,
                _x_star(d_i, X - x_prev, cutoff), tuple(newv)))
        yield ExplorationTrace(start=start, records=tuple(records),
                               component=frozenset(tree),
                               died_at=len(records), m=m)


def explore(g: SimpleGraph, start: int) -> ExplorationTrace:
    """Deterministic exploration replay on a fixed simple graph."""
    return next(_walks(g.adj, [start], g.m))


def explore_matching(seq: DegreeSequence, matching: Matching,
                     start: int) -> ExplorationTrace:
    """Deterministic exploration replay on a fixed full matching (multigraph
    configuration).  Half-edges of v_i are exposed in ascending slot order;
    each half-edge of a loop counts 1 toward L_i."""
    if len(matching) != 2 * seq.m:
        raise ValueError("matching length does not fit the sequence")
    if not matching.is_full:
        raise ValueError("explore_matching needs a full matching")
    far = owner_array(seq)[matching.partner].tolist()
    offsets = seq.half_edge_offsets
    partners = [[]] + [far[offsets[v - 1]:offsets[v]]
                       for v in range(1, seq.n + 1)]
    return next(_walks(partners, [start], seq.m))


def explore_revealing(seq: DegreeSequence, rng: np.random.Generator,
                      start: int, mode: str = "multigraph",
                      sampler: str = "rejection",
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                      steps: Optional[int] = None):
    """Sample-and-replay exploration.

    multigraph mode: draws a uniform perfect matching and replays it — each
    open half-edge's revealed partner is thereby uniform over the unmatched
    ones, the pure configuration model.  Draw order: one random_matching.
    simple-conditioned mode: samples a uniform simple graph and replays
    explore.  Draw order: one census.sample_batch(seq, sampler, 1, rng,
    steps, max_attempts) call, so the graph is row 0 of that sampler's batch
    of one.  Returns (trace, realized graph).  A negative `steps` raises
    DegconnError in either mode.
    """
    steps = chain_steps(steps, seq.m)
    if mode == "multigraph":
        matching = random_matching(seq, rng)
        trace = explore_matching(seq, matching, start)
        return trace, matching_to_multigraph(seq, matching)
    if mode == "simple-conditioned":
        lo, hi, _ = sample_batch(seq, sampler, 1, rng, steps, max_attempts)
        g = SimpleGraph(seq.n, zip(lo[0].tolist(), hi[0].tolist()))
        return explore(g, start), g
    raise ValueError(f"unknown mode {mode!r}")


def explore_components(g: SimpleGraph) -> List[ExplorationTrace]:
    """Explore from every not-yet-reached vertex (ascending label); the trace
    components partition 1..n."""
    return list(_walks(g.adj, range(1, g.n + 1), g.m))


def check_trace(trace: ExplorationTrace, simple: bool = True) -> List[str]:
    """Return human-readable descriptions of every violated trace invariant.

    The step inequality and both delta-X bounds hold for multigraph traces
    too; the sqrt-X and X >= L(L-1) bounds are stated for the simple-graph
    process (a loop already breaks them) and are only checked when
    simple=True.
    """
    bad: List[str] = []
    prev_x = None
    # records are unpacked, not read by attribute: this loop runs per step
    for i, _, d_i, J, K, L, X, x_prev, _, _ in trace.records:
        if prev_x is not None and x_prev != prev_x:
            bad.append(f"i={i}: x_prev {x_prev} does not chain from {prev_x}")
        prev_x = X
        dx = X - x_prev
        if J + K + L > d_i:
            bad.append(f"i={i}: J+K+L = {J + K + L} > d_i = {d_i}")
        if dx < d_i - 2 * J - K - 3 * L:
            bad.append(f"i={i}: step inequality fails "
                       f"({dx} < {d_i - 2 * J - K - 3 * L})")
        if dx < -2 * d_i:
            bad.append(f"i={i}: X dropped more than 2 d_i ({dx})")
        if X < 0:
            bad.append(f"i={i}: negative X")
        if simple:
            if L > math.isqrt(x_prev):
                bad.append(f"i={i}: L = {L} > floor sqrt X_prev = "
                           f"{math.isqrt(x_prev)}")
            if L >= 1 and x_prev < d_i * (L + 1):
                bad.append(f"i={i}: X_prev = {x_prev} < d_i (L+1) = "
                           f"{d_i * (L + 1)}")
            if X < L * (L - 1):
                bad.append(f"i={i}: X = {X} < L(L-1) = {L * (L - 1)}")
    if trace.records and trace.records[-1].X != 0:
        bad.append("trace did not end at X = 0")
    return bad
