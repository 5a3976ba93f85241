"""Connected-component census and disconnection-probability estimation.

One key rule names every component.  A component of at most
SMALL_COMPONENT_MAX (6) vertices is identified by its sorted degree
multiset: if its (vertex count, edge count, leaf count) signature is in
_NAMED_SIGNATURES it gets that name (edge, paths, cycles, triangle with a
pendant, K4 minus an edge, K4), otherwise other_small_<sorted degrees>.  A
larger component is large_<v>v_<e>e, whatever its shape, so a 7-vertex
cycle is large_7v_7e.  Sampled batches label components with one sparse
connected-components pass; a single graph is grouped by the union-find in
connected_components, the tests' reference; the exact oracle counts
components per degree multiset without building a graph.  All three count
components by an exact key and name each distinct key once.

Monte Carlo estimation draws uniform simple graphs in fixed-size batches,
runs one sparse connected-components pass over the block-diagonal union of a
batch, and reduces per-component tallies with integer arithmetic so that
results merge associatively and reproduce exactly at any thread count.  The
census and the tightness table run their batches through one runner.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .degseq import (DegreeSequence, InvariantSet, compute_invariants,
                     theorem1_bound, validate_sequence)
from .errors import NotGraphical, TrialsTooFew
from .exact import check_enumerable, count_connectivity
# No code here calls enumerate_realizations; perfbench's traced run wraps
# census.enumerate_realizations by name on every workload.
from .exact import enumerate_realizations  # noqa: F401
from .graphs import SimpleGraph, owner_array
from .sampler import (DEFAULT_MAX_ATTEMPTS, _block_rows, _pairing_keys,
                      chain_steps, rejection_sample_batch, switch_chain_batch)
from .streams import BATCH_SIZE, batch_ranges, substream

SMALL_COMPONENT_MAX = 6
_COUNT_BITS = 3  # holds a per-degree vertex count of 0..SMALL_COMPONENT_MAX
_COUNT_MASK = (1 << _COUNT_BITS) - 1
SCHEMA_VERSION = 1
_MULTIGRAPH_BATCH_SIZE = 4096  # matchings per two-leaf statistics batch

# Named classes paired with the invariant that bounds their appearance
# probability; the tightness table reports empirical mean / invariant.
CLASS_INVARIANT_PAIRS = (
    ("edge", "u_edge"),
    ("triangle", "u_triangle"),
    ("triangle_pendant", "u_triangle_pendant"),
    ("k4_minus_e", "u_k4_minus_e"),
    ("k4", "u_k4"),
)


def connected_components(g: SimpleGraph) -> List[List[int]]:
    """Sorted vertex lists of the components by least member (union-find)."""
    parent = list(range(g.n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges():
        parent[find(u)] = find(v)
    groups: Dict[int, List[int]] = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


# (vertex count, edge count, leaf count) signatures of the named classes;
# unique among connected graphs of <= 6 vertices (validated against the full
# small-graph atlas in the test suite).
_NAMED_SIGNATURES = {
    (2, 1, 2): "edge",
    (3, 2, 2): "path_len_2",
    (4, 3, 2): "path_len_3",
    (5, 4, 2): "path_len_4",
    (6, 5, 2): "path_len_5",
    (3, 3, 0): "triangle",
    (4, 4, 0): "cycle_len_4",
    (5, 5, 0): "cycle_len_5",
    (6, 6, 0): "cycle_len_6",
    (4, 4, 1): "triangle_pendant",
    (4, 5, 0): "k4_minus_e",
    (4, 6, 0): "k4",
}


def _large_name(nv: int, edge_count: int) -> str:
    return f"large_{nv}v_{edge_count}e"


def classify_component(degrees: Sequence[int]) -> str:
    """Class key for one connected component given its vertex degrees (within
    the component, so it has sum(degrees) // 2 edges): a named class from
    _NAMED_SIGNATURES, else other_small_<sorted degrees> up to
    SMALL_COMPONENT_MAX vertices, else large_<v>v_<e>e."""
    nv = len(degrees)
    edge_count = sum(degrees) // 2
    if nv > SMALL_COMPONENT_MAX:
        return _large_name(nv, edge_count)
    n1 = sum(1 for d in degrees if d == 1)
    named = _NAMED_SIGNATURES.get((nv, edge_count, n1))
    if named is not None:
        return named
    return "other_small_" + "".join(str(d) for d in sorted(degrees))


@dataclass
class ComponentTaxonomy:
    """Component counts per class, mergeable associatively."""

    counts: Counter = field(default_factory=Counter)

    def add(self, key: str, k: int = 1) -> None:
        self.counts[key] += k

    def merge(self, other: "ComponentTaxonomy") -> "ComponentTaxonomy":
        out = Counter(self.counts)
        out.update(other.counts)
        return ComponentTaxonomy(out)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_json_dict(self) -> Dict[str, int]:
        return {k: self.counts[k] for k in sorted(self.counts)}


def _name_shapes(shapes: Dict[Tuple[int, ...], int]) -> ComponentTaxonomy:
    """Taxonomy of component counts given by sorted degree tuple."""
    tax = ComponentTaxonomy()
    for degs, c in shapes.items():
        tax.add(classify_component(degs), c)
    return tax


def classify_components(g: SimpleGraph) -> ComponentTaxonomy:
    return _name_shapes(Counter(tuple(sorted(g.degree(v) for v in comp))
                                for comp in connected_components(g)))


@dataclass(frozen=True)
class ConnectivityOracle:
    probability_connected: Fraction
    realization_count: int
    taxonomy_totals: ComponentTaxonomy  # summed over all realizations

    def taxonomy_means(self) -> Dict[str, Fraction]:
        k = self.realization_count
        return {cls: Fraction(c, k)
                for cls, c in sorted(self.taxonomy_totals.counts.items())}


def exact_connectivity_oracle(seq: DegreeSequence) -> ConnectivityOracle:
    """Exact P(connected) under the uniform simple-graph law, with the
    component taxonomy summed over all realizations, by counting over
    degree-class vectors (exact.count_connectivity) without enumerating a
    graph.  connected_components over enumerate_realizations is the
    independent reference the tests hold it to.  TooLarge above the
    enumeration limit (check_enumerable), which still guards this oracle."""
    check_enumerable(seq)
    validate_sequence(seq.degrees)
    total, connected, shapes = count_connectivity(seq.degrees)
    return ConnectivityOracle(Fraction(connected, total), total,
                              _name_shapes(shapes))


def wilson_interval(successes: int, trials: int,
                    z: float = 1.959963984540054) -> Tuple[float, float]:
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials)) / denom
    # the bound is exactly 0 (resp. 1) at the extremes; avoid cancellation dust
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def clopper_pearson_interval(successes: int, trials: int,
                             alpha: float = 0.05) -> Tuple[float, float]:
    # scipy.stats takes most of a cold `import degconn`; only this needs it
    from scipy.stats import beta

    lo = 0.0 if successes == 0 else float(
        beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


def large_component_threshold(m: int) -> float:
    """Edge-count threshold 4 (ln m)^4 above which a component counts as
    large for the two-large-components statistic."""
    if m <= 1:
        return 0.0
    return 4.0 * math.log(m) ** 4


@dataclass
class _Tally:
    """Integer accumulators for one batch; merged in batch order."""

    trials: int = 0
    disconnected: int = 0
    components: int = 0
    attempts: int = 0
    two_large: int = 0
    taxonomy: ComponentTaxonomy = field(default_factory=ComponentTaxonomy)
    second_largest_edges: Counter = field(default_factory=Counter)

    def merge(self, other: "_Tally") -> "_Tally":
        # counts are positive, so Counter + drops nothing
        return _Tally(
            trials=self.trials + other.trials,
            disconnected=self.disconnected + other.disconnected,
            components=self.components + other.components,
            attempts=self.attempts + other.attempts,
            two_large=self.two_large + other.two_large,
            taxonomy=self.taxonomy.merge(other.taxonomy),
            second_largest_edges=(self.second_largest_edges
                                  + other.second_largest_edges))


def _batch_census(seq: DegreeSequence, lo: np.ndarray, hi: np.ndarray,
                  threshold: float) -> _Tally:
    """Census one batch of simple graphs given as (count, m) endpoint arrays
    (1-indexed, each row one graph).  Each row must be code-sorted, or at
    least have lo nondecreasing, as both samplers return it: the graph is
    built as a CSR matrix straight from the rows, and ValueError is raised
    for a batch whose lo decreases along a row."""
    # scipy.sparse is most of the time and memory of a cold `import degconn`
    # (about 0.5 s and 33 MB); only the batch census needs it
    from scipy import sparse
    from scipy.sparse import csgraph

    count, m = lo.shape
    n = seq.n
    if (lo[:, 1:] < lo[:, :-1]).any():
        raise ValueError("batch census needs code-sorted rows")
    # the flattened rows never decrease, so vertex v's edges are one run
    index = np.int32 if count * n < 2**31 else np.int64
    block = np.arange(count, dtype=index)[:, None] * index(n)
    rows = (lo.astype(index, copy=False) - 1 + block).ravel()
    cols = (hi.astype(index, copy=False) - 1 + block).ravel()
    indptr = np.zeros(count * n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=count * n), out=indptr[1:])
    adj = sparse.csr_matrix((np.ones(rows.size), cols, indptr),
                            shape=(count * n, count * n))
    ncomp, labels = csgraph.connected_components(adj, directed=False)

    sizes = np.bincount(labels, minlength=ncomp)
    ne = np.bincount(labels[rows], minlength=ncomp)
    graph_of = np.empty(ncomp, dtype=np.int64)
    graph_of[labels] = np.arange(count * n, dtype=np.int64) // n

    tally = _Tally(trials=count)
    comps_per_graph = np.bincount(graph_of, minlength=count)
    tally.components = int(ncomp)
    tally.disconnected = int((comps_per_graph > 1).sum())

    large = ne > threshold
    large_per_graph = np.bincount(graph_of[large], minlength=count)
    tally.two_large = int((large_per_graph >= 2).sum())

    # second-largest component edge count per graph (0 when connected)
    order = np.lexsort((-ne, graph_of))
    starts = np.searchsorted(graph_of[order], np.arange(count))
    multi = comps_per_graph >= 2
    second = np.zeros(count, dtype=np.int64)
    second[multi] = ne[order[starts[multi] + 1]]
    for val, cnt in zip(*np.unique(second, return_counts=True)):
        tally.second_largest_edges[int(val)] += int(cnt)

    # classification: one exact key per component, each distinct key named
    # once.  A small component's key is its degree multiset packed as
    # per-degree counts, _COUNT_BITS bits per degree value (its degrees are
    # below SMALL_COMPONENT_MAX and each count at most SMALL_COMPONENT_MAX);
    # a larger component's key is (vertices << 32) | edges.
    deg = np.minimum(np.asarray(seq.degrees, dtype=np.int64),
                     SMALL_COMPONENT_MAX)
    packed = np.bincount(labels,
                         weights=np.tile(1 << (_COUNT_BITS * deg), count),
                         minlength=ncomp).astype(np.int64)
    keys = np.where(sizes <= SMALL_COMPONENT_MAX, packed, (sizes << 32) | ne)
    for key, cnt in zip(*np.unique(keys, return_counts=True)):
        key = int(key)
        if key >> 32:
            name = _large_name(key >> 32, key & 0xFFFFFFFF)
        else:
            degs = [d for d in range(SMALL_COMPONENT_MAX)
                    for _ in range((key >> (_COUNT_BITS * d)) & _COUNT_MASK)]
            name = classify_component(degs)
        tally.taxonomy.add(name, int(cnt))
    return tally


def sample_batch(seq: DegreeSequence, sampler: str, count: int,
                 rng: np.random.Generator, steps: Optional[int] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS
                 ) -> Tuple[np.ndarray, np.ndarray, int]:
    """`count` simple graphs from the named sampler ("rejection" or
    "switch-chain") as (lo, hi, attempts): (count, m) endpoint arrays,
    1-indexed with lo < hi, and the matchings drawn (the chain counts one
    per graph).  A single graph is a batch of one.  Only the chain reads
    `steps`, but a negative count raises DegconnError, and a non-graphical
    sequence NotGraphical before any draw, for either sampler."""
    steps = chain_steps(steps, seq.m)
    if not seq.graphical:
        raise NotGraphical(f"{seq.degrees} fails the Erdos-Gallai criterion")
    if sampler == "rejection":
        return rejection_sample_batch(seq, count, rng, max_attempts)
    if sampler == "switch-chain":
        codes = switch_chain_batch(seq, steps, count, rng)
        return codes // (seq.n + 1), codes % (seq.n + 1), count
    raise ValueError(f"unknown sampler {sampler!r}")


def _census_batch_job(args) -> _Tally:
    degrees, seed, index, count, sampler, steps, max_attempts = args
    seq = DegreeSequence(degrees)
    lo, hi, attempts = sample_batch(seq, sampler, count,
                                    substream(seed, index), steps,
                                    max_attempts)
    tally = _batch_census(seq, lo, hi, large_component_threshold(seq.m))
    tally.attempts = int(attempts)
    return tally


def _census_tallies(runs: Sequence[Tuple[DegreeSequence, int]], trials: int,
                    sampler: str, steps: Optional[int], threads: int,
                    max_attempts: int) -> List[_Tally]:
    """One _Tally per (sequence, seed) run of `trials` graphs, batch b of
    BATCH_SIZE drawn from substream(seed, b).  Every run's batches go to one
    map on min(threads, batches, CPUs) worker processes (serial at 1) and
    merge in batch order, so the tallies are identical at any thread count."""
    for seq, _ in runs:
        validate_sequence(seq.degrees)
    if trials < 1:
        raise TrialsTooFew("trials must be >= 1")
    ranges = list(batch_ranges(trials, BATCH_SIZE))
    jobs = [(tuple(seq.degrees), seed, b, stop - start, sampler,
             chain_steps(steps, seq.m), max_attempts)
            for seq, seed in runs for b, start, stop in ranges]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # load scipy.sparse before the pool forks, so the workers inherit it
        # instead of each importing it afresh
        import scipy.sparse.csgraph  # noqa: F401
        # imported here: the pool is a large part of a cold `import degconn`
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_census_batch_job, jobs, chunksize=1))
    else:
        tallies = [_census_batch_job(job) for job in jobs]
    k = len(ranges)
    return [reduce(_Tally.merge, tallies[r * k:(r + 1) * k], _Tally())
            for r in range(len(runs))]


@dataclass
class CensusReport:
    degrees: Tuple[int, ...]
    trials: int
    sampler: str
    steps: Optional[int]
    seed: int
    batch_size: int
    disconnected: int
    p_hat: float
    wilson_95: Tuple[float, float]
    clopper_pearson_95: Tuple[float, float]
    taxonomy: ComponentTaxonomy
    components_total: int
    attempts: int
    two_large: int
    large_threshold: float
    second_largest_edges: Dict[int, int]
    invariants: InvariantSet
    bound: Fraction
    ratio_to_bound: Optional[float]

    def taxonomy_means(self) -> Dict[str, float]:
        return {k: c / self.trials
                for k, c in sorted(self.taxonomy.counts.items())}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "degrees": list(self.degrees),
            "trials": self.trials,
            "sampler": self.sampler,
            "steps": self.steps,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "disconnected": self.disconnected,
            "p_hat": self.p_hat,
            "wilson_95": list(self.wilson_95),
            "clopper_pearson_95": list(self.clopper_pearson_95),
            "attempts": self.attempts,
            "components_total": self.components_total,
            "components_mean": self.components_total / self.trials,
            "taxonomy_counts": self.taxonomy.to_json_dict(),
            "taxonomy_means": self.taxonomy_means(),
            "two_large": self.two_large,
            "two_large_frequency": self.two_large / self.trials,
            "large_threshold_edges": self.large_threshold,
            "second_largest_edge_counts":
                {str(k): v for k, v in sorted(self.second_largest_edges.items())},
            "invariants": self.invariants.to_json_dict(),
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "bound_float": float(self.bound),
            "ratio_to_bound": self.ratio_to_bound,
        }

    def to_csv_text(self) -> str:
        lines = ["key,value"]
        d = self.to_json_dict()
        for key in ("schema_version", "trials", "sampler", "steps", "seed",
                    "batch_size", "disconnected", "p_hat", "attempts",
                    "components_mean", "two_large_frequency",
                    "large_threshold_edges", "bound_float", "ratio_to_bound"):
            lines.append(f"{key},{d[key]}")
        lines.append("class,count,mean")
        for cls, cnt in sorted(self.taxonomy.counts.items()):
            lines.append(f"{cls},{cnt},{cnt / self.trials}")
        return "\n".join(lines) + "\n"


def estimate_disconnection(seq: DegreeSequence, trials: int, seed: int,
                           sampler: str = "rejection",
                           steps: Optional[int] = None,
                           threads: int = 1,
                           max_attempts: int = DEFAULT_MAX_ATTEMPTS
                           ) -> CensusReport:
    """Monte Carlo disconnection estimate with full component taxonomy, one
    _census_tallies run, so the report is identical at any thread count."""
    total, = _census_tallies([(seq, seed)], trials, sampler, steps, threads,
                             max_attempts)
    steps = chain_steps(steps, seq.m)
    inv = compute_invariants(seq)
    bound = theorem1_bound(inv)
    p_hat = total.disconnected / trials
    ratio = p_hat / float(bound) if bound > 0 else None
    return CensusReport(
        degrees=tuple(seq.degrees), trials=trials, sampler=sampler,
        steps=steps if sampler == "switch-chain" else None, seed=seed,
        batch_size=BATCH_SIZE, disconnected=total.disconnected, p_hat=p_hat,
        wilson_95=wilson_interval(total.disconnected, trials),
        clopper_pearson_95=clopper_pearson_interval(total.disconnected, trials),
        taxonomy=total.taxonomy, components_total=total.components,
        attempts=total.attempts, two_large=total.two_large,
        large_threshold=large_component_threshold(seq.m),
        second_largest_edges=dict(sorted(total.second_largest_edges.items())),
        invariants=inv, bound=bound, ratio_to_bound=ratio)


def exact_multigraph_edge_component_mean(seq: DegreeSequence) -> Fraction:
    """Exact expected number of two-leaf components over uniform half-edge
    matchings: each of the n1(n1-1)/2 leaf pairs is matched with
    probability 1/(2m-1).  Closed form, so any size."""
    n1 = seq.count(1)
    return Fraction(n1 * (n1 - 1), 2 * (2 * seq.m - 1))


def multigraph_edge_component_stats(seq: DegreeSequence, trials: int,
                                    seed: int) -> Dict[str, object]:
    """Mean (and standard error) of the two-leaf component count over
    unconditioned uniform matchings.  Batch b is _MULTIGRAPH_BATCH_SIZE rows
    of 64-bit _pairing_keys from substream(seed, b), each half-edge labelled
    by its owner's leaf flag (1 bit); ties are not rejected.  The rows are
    drawn in blocks of at most _BLOCK_ELEMENTS keys, which are slices of the
    same key stream, so memory stays bounded and the result does not depend
    on the block size."""
    if trials < 1:
        raise TrialsTooFew("trials must be >= 1")
    leaf = (np.asarray(seq.degrees) == 1).astype(np.uint64)[
        owner_array(seq) - 1]
    block = _block_rows(len(leaf))
    s = 0
    s2 = 0
    hist: Counter = Counter()
    for b, start, stop in batch_ranges(trials, _MULTIGRAPH_BATCH_SIZE):
        rng = substream(seed, b)
        for first in range(start, stop, block):
            keys = _pairing_keys(rng, min(block, stop - first), leaf, 1)
            counts = (keys[:, 0::2] & keys[:, 1::2] & 1).sum(axis=1)
            s += int(counts.sum())
            s2 += int((counts ** 2).sum())
            for val, cnt in zip(*np.unique(counts, return_counts=True)):
                hist[int(val)] += int(cnt)
    mean = s / trials
    var = max(s2 / trials - mean * mean, 0.0)
    sem = math.sqrt(var / trials)
    return {"trials": trials, "seed": seed, "mean": mean, "sem": sem,
            "histogram": {str(k): v for k, v in sorted(hist.items())}}


@dataclass(frozen=True)
class TightnessRow:
    size: int
    n: int
    m: int
    d_star_ok: bool
    cls: str
    empirical_mean: float
    u_value: float
    ratio: Optional[float]


@dataclass
class TightnessTable:
    family: str
    trials: int
    seed: int
    sampler: str
    rows: Tuple[TightnessRow, ...]

    def to_csv_text(self) -> str:
        lines = ["size,n,m,d_star_ok,class,empirical_mean,u_value,ratio"]
        for r in self.rows:
            ratio = "n/a" if r.ratio is None else repr(r.ratio)
            lines.append(f"{r.size},{r.n},{r.m},{int(r.d_star_ok)},{r.cls},"
                         f"{r.empirical_mean!r},{r.u_value!r},{ratio}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family,
            "trials": self.trials,
            "seed": self.seed,
            "sampler": self.sampler,
            "rows": [
                {"size": r.size, "n": r.n, "m": r.m,
                 "d_star_ok": r.d_star_ok, "class": r.cls,
                 "empirical_mean": r.empirical_mean, "u_value": r.u_value,
                 "ratio": r.ratio}
                for r in self.rows
            ],
        }


def tightness_experiment(family: Callable[[int], DegreeSequence],
                         sizes: Sequence[int], trials: int, seed: int,
                         family_name: str = "custom",
                         sampler: str = "rejection",
                         threads: int = 1) -> TightnessTable:
    """Empirical small-component means against their closed-form bounds
    across a growing family.  Sequences violating the neighbor-degree-sum
    condition d_star <= m/3 are flagged rather than rejected.  Size number
    idx is censused under the seed SeedSequence((seed, 777, idx)), and the
    batches of every size go to one _census_tallies map."""
    seqs = [family(size) for size in sizes]
    runs = [(seq, int(np.random.SeedSequence((seed & (2**64 - 1), 777, idx))
                      .generate_state(1, np.uint64)[0]))
            for idx, seq in enumerate(seqs)]
    tallies = _census_tallies(runs, trials, sampler, None, threads,
                              DEFAULT_MAX_ATTEMPTS)
    rows: List[TightnessRow] = []
    for size, seq, tally in zip(sizes, seqs, tallies):
        inv = compute_invariants(seq)
        ok = inv.d_star <= Fraction(seq.m, 3)
        for cls, u_name in CLASS_INVARIANT_PAIRS:
            u = getattr(inv, u_name)
            mean = tally.taxonomy.counts[cls] / trials
            if u > 0:
                ratio: Optional[float] = mean / float(u)
            elif mean == 0.0:
                ratio = None  # 0/0: class impossible and bound vacuous
            else:
                ratio = math.inf
            rows.append(TightnessRow(size=size, n=seq.n, m=seq.m,
                                     d_star_ok=ok, cls=cls,
                                     empirical_mean=mean,
                                     u_value=float(u), ratio=ratio))
    return TightnessTable(family=family_name, trials=trials, seed=seed,
                          sampler=sampler, rows=tuple(rows))
