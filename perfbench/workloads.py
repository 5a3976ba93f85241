"""The five benchmark workloads and the checks on their outputs.

Each workload builds its fixed input once (`build`), then runs *units*: one
unit is the workload's complete result, made from inputs derived from the run
seed and the unit index.  `Unit.wall_s` counts only the time spent inside
calls into degconn; every check of an output runs outside those calls.  An
operation fails when it raises (a DegconnError such as AttemptsExhausted, or
any other exception) or when its output fails a check; a failed operation
counts as attempted and its latency as infinite.

The benchmark calls degconn through attributes of the workload object (its
entry points) so that the traced run can wrap them without touching the
program; `PROGRAM_SPANS` lists the names that degconn modules import from
each other, which the traced run wraps in the importing module.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

import numpy as np

from degconn import families

# `degconn.explore` is also the name of a function the package re-exports,
# so the modules are looked up by name rather than by attribute.
census = importlib.import_module("degconn.census")
degseq = importlib.import_module("degconn.degseq")
exact = importlib.import_module("degconn.exact")
explore = importlib.import_module("degconn.explore")
graphs = importlib.import_module("degconn.graphs")
sampler = importlib.import_module("degconn.sampler")

perf = time.perf_counter
REFERENCE = Path(__file__).resolve().parent / "oracle_reference.json"


@dataclass
class Unit:
    """Timings, counts and check results of one unit."""

    wall_s: float = 0.0
    calls_s: List[float] = field(default_factory=list)
    graphs: int = 0
    records: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    output: bytes = b""

    def record(self, seconds: float, problems: List[str] = ()) -> None:
        """Account one operation that took `seconds` inside degconn."""
        self.wall_s += seconds
        self.calls_s.append(math.inf if problems else seconds)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def unit_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence((seed & (2**64 - 1), index))
    return int(ss.generate_state(1, np.uint64)[0])


def bad_rows(degrees, lo, hi) -> np.ndarray:
    """Mask of sampled rows (one graph each, 1-indexed endpoint arrays) that
    are not simple graphs realizing `degrees`."""
    deg = np.asarray(degrees, dtype=np.int64)
    n, m = deg.size, int(deg.sum()) // 2
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != m:
        return np.ones(max(len(lo), 1), dtype=bool)
    count = lo.shape[0]
    bad = ~((lo >= 1) & (lo < hi) & (hi <= n)).all(axis=1)
    codes = np.sort(lo * (n + 1) + hi, axis=1)
    bad |= (np.diff(codes, axis=1) == 0).any(axis=1)
    base = np.arange(count, dtype=np.int64)[:, None] * (n + 1)
    size = count * (n + 1)
    got = (np.bincount((base + np.clip(lo, 0, n)).ravel(), minlength=size)
           + np.bincount((base + np.clip(hi, 0, n)).ravel(), minlength=size))
    bad |= (got.reshape(count, n + 1)[:, 1:] != deg).any(axis=1)
    return bad


def report_problems(rep, trials: int) -> List[str]:
    """Consistency of one CensusReport."""
    out = []
    if rep.trials != trials:
        out.append(f"report has {rep.trials} trials, asked {trials}")
    if sum(rep.taxonomy.counts.values()) != rep.components_total:
        out.append("class counts do not sum to components_total")
    if not 0 <= rep.disconnected <= rep.trials:
        out.append(f"disconnected = {rep.disconnected} outside [0, trials]")
    if rep.components_total < rep.trials or rep.attempts < rep.trials:
        out.append("fewer components or attempts than trials")
    if sum(rep.second_largest_edges.values()) != rep.trials:
        out.append("second-largest histogram does not cover every trial")
    return out


def fallback_components(rep) -> int:
    """Components classified by the per-component fallback of the census
    (small components outside the named signature table)."""
    return sum(c for k, c in rep.taxonomy.counts.items()
               if k.startswith("other_small_"))


class Workload:
    name = ""
    threads = 1  # thread count of the untraced run

    def __init__(self, seed: int):
        self.seed = seed
        self.input = self.build()

    @staticmethod
    def build():
        raise NotImplementedError

    def run_unit(self, index: int, threads: int) -> Unit:
        raise NotImplementedError

    def static_problems(self) -> List[str]:
        """Checks that hold for the whole run rather than one unit."""
        return []


class TightnessTwos(Workload):
    """tightness_experiment over the with-twos family, through the pool."""

    name = "tightness-twos"
    SIZES = (60, 120, 240)
    TRIALS = 4096
    threads = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.tightness_experiment = census.tightness_experiment

    @staticmethod
    def build():
        return [families.twos_tenth_of_m(s) for s in TightnessTwos.SIZES]

    def run_unit(self, index, threads):
        unit = Unit()
        t0 = perf()
        try:
            table = self.tightness_experiment(
                families.twos_tenth_of_m, self.SIZES, self.TRIALS,
                unit_seed(self.seed, index), family_name="with-twos",
                sampler="rejection", threads=threads)
        except Exception as exc:
            unit.record(perf() - t0, [f"tightness_experiment raised {exc!r}"])
            return unit
        seconds = perf() - t0
        unit.record(seconds, self.table_problems(table))
        unit.graphs = self.TRIALS * len(self.SIZES)
        unit.output = table.to_csv_text().encode()
        return unit

    def table_problems(self, table) -> List[str]:
        classes = len(census.CLASS_INVARIANT_PAIRS)
        if len(table.rows) != classes * len(self.SIZES):
            return [f"tightness table has {len(table.rows)} rows"]
        out = []
        for k, row in enumerate(table.rows):
            seq = self.input[k // classes]
            if (row.n, row.m) != (seq.n, seq.m):
                out.append(f"row {k} describes n={row.n} m={row.m}")
            if not 0.0 <= row.empirical_mean < math.inf:
                out.append(f"row {k} has mean {row.empirical_mean}")
            if row.u_value > 0 and row.ratio != row.empirical_mean / row.u_value:
                out.append(f"row {k} ratio is not mean / bound")
        return out


class Census(Workload):
    """estimate_disconnection on one fixed sequence, single-threaded."""

    TRIALS = 0
    SAMPLER = ""

    def __init__(self, seed):
        super().__init__(seed)
        self.estimate_disconnection = census.estimate_disconnection

    def run_unit(self, index, threads):
        unit = Unit()
        t0 = perf()
        try:
            rep = self.estimate_disconnection(
                self.input, self.TRIALS, unit_seed(self.seed, index),
                sampler=self.SAMPLER, threads=threads)
        except Exception as exc:
            unit.record(perf() - t0, [f"estimate_disconnection raised {exc!r}"])
            return unit
        unit.record(perf() - t0, report_problems(rep, self.TRIALS))
        unit.graphs = self.TRIALS
        unit.output = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        return unit


class CensusLeaves(Census):
    name = "census-leaves"
    TRIALS = 4096
    SAMPLER = "rejection"

    @staticmethod
    def build():
        return families.with_leaves(n1=40, d=3, n=60)


class CensusDense(Census):
    name = "census-dense"
    TRIALS = 256
    SAMPLER = "switch-chain"

    @staticmethod
    def build():
        return families.regular(d=6, n=30)


class ExploreBulk(Workload):
    """Sample graphs, then build, explore and check each one; one operation
    is one graph."""

    name = "explore-bulk"
    GRAPHS = 128

    def __init__(self, seed):
        super().__init__(seed)
        self.rejection_sample_batch = sampler.rejection_sample_batch
        self.SimpleGraph = graphs.SimpleGraph
        self.explore_components = explore.explore_components
        self.check_trace = explore.check_trace

    @staticmethod
    def build():
        return families.regular(d=3, n=100)

    def run_unit(self, index, threads):
        unit = Unit()
        seq = self.input
        rng = np.random.default_rng(unit_seed(self.seed, index))
        t0 = perf()
        try:
            lo, hi, _ = self.rejection_sample_batch(seq, self.GRAPHS, rng)
        except Exception as exc:
            unit.wall_s += perf() - t0
            for _ in range(self.GRAPHS):
                unit.record(0.0, [f"rejection_sample_batch raised {exc!r}"])
            return unit
        unit.wall_s += perf() - t0
        bad = bad_rows(seq.degrees, lo, hi)
        digest = hashlib.sha256()
        for r in range(self.GRAPHS):
            edges = list(zip(lo[r].tolist(), hi[r].tolist()))
            problems = ["sampled row is not a simple realization"] if bad[r] else []
            t0 = perf()
            try:
                g = self.SimpleGraph(seq.n, edges)
                traces = self.explore_components(g)
                violations = [self.check_trace(tr) for tr in traces]
            except Exception as exc:
                unit.record(perf() - t0, [f"graph {r} raised {exc!r}"])
                continue
            seconds = perf() - t0
            problems += [f"graph {r}: {v}" for vs in violations for v in vs]
            components = sorted(sorted(tr.component) for tr in traces)
            if components != census.connected_components(g):
                problems.append(f"graph {r}: trace components differ from "
                                "connected_components")
            unit.record(seconds, problems)
            unit.graphs += 1
            unit.records += sum(len(tr.records) for tr in traces)
            if index == 0:
                for tr in traces:
                    digest.update(tr.to_csv_text().encode())
        unit.output = digest.digest()
        return unit


class OracleSweep(Workload):
    """exact_connectivity_oracle over every graphical multiset with at most
    MAX_HALF_EDGES half-edges, vertex labels shuffled per unit."""

    name = "oracle-sweep"
    MAX_HALF_EDGES = 12

    def __init__(self, seed):
        super().__init__(seed)
        self.exact_connectivity_oracle = census.exact_connectivity_oracle
        ref = json.loads(REFERENCE.read_text())
        self.reference = ref["sequences"]
        self.reference_limit = ref["max_half_edges"]

    @staticmethod
    def build():
        return exact.graphical_multisets(OracleSweep.MAX_HALF_EDGES)

    def static_problems(self):
        keys = {",".join(map(str, d)) for d in self.input}
        if self.reference_limit != self.MAX_HALF_EDGES or keys != set(self.reference):
            return ["graphical_multisets differs from the recorded reference"]
        return []

    def run_unit(self, index, threads):
        unit = Unit()
        rng = np.random.default_rng(unit_seed(self.seed, index))
        out = []
        for degrees in self.input:
            shuffled = [degrees[k] for k in rng.permutation(len(degrees))]
            seq = degseq.DegreeSequence(shuffled)
            t0 = perf()
            try:
                oracle = self.exact_connectivity_oracle(seq)
            except Exception as exc:
                unit.record(perf() - t0, [f"oracle {degrees} raised {exc!r}"])
                continue
            seconds = perf() - t0
            ref = self.reference.get(",".join(map(str, degrees)), {})
            count = oracle.realization_count
            problems = []
            if (count != exact.count_realizations(shuffled)
                    or count != ref.get("realization_count")):
                problems.append(f"oracle {degrees}: realization_count {count}")
            if oracle.probability_connected != Fraction(
                    ref.get("probability_connected", "-1")):
                problems.append(f"oracle {degrees}: P(connected) "
                                f"{oracle.probability_connected}")
            if oracle.taxonomy_totals.total() < count:
                problems.append(f"oracle {degrees}: fewer components than graphs")
            unit.record(seconds, problems)
            unit.graphs += count
            out.append(f"{shuffled}:{oracle.probability_connected}:{count}:"
                       f"{oracle.taxonomy_totals.to_json_dict()}")
        unit.output = "\n".join(out).encode()
        return unit


WORKLOADS = {w.name: w for w in (TightnessTwos, CensusLeaves, CensusDense,
                                 ExploreBulk, OracleSweep)}


def _argument(fn, name: str):
    """Read argument `name` of a call to `fn` whatever its calling style."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments.get(name)


@dataclass
class Capture:
    """Sampled rows (degrees, lo, hi) and census reports seen in one unit."""

    rows: list = field(default_factory=list)
    reports: list = field(default_factory=list)


@contextlib.contextmanager
def captured():
    """Record what degconn.census samples and reports, in this process."""
    from spans import patched

    cap = Capture()
    seq_of_rej = _argument(census.rejection_sample_batch, "seq")
    seq_of_switch = _argument(census.switch_chain_batch, "seq")

    def rejection(fn):
        def wrapper(*args, **kwargs):
            lo, hi, attempts = fn(*args, **kwargs)
            cap.rows.append((seq_of_rej(args, kwargs).degrees, lo, hi))
            return lo, hi, attempts
        return wrapper

    def switch(fn):
        def wrapper(*args, **kwargs):
            codes = fn(*args, **kwargs)
            seq = seq_of_switch(args, kwargs)
            cap.rows.append((seq.degrees, codes // (seq.n + 1),
                             codes % (seq.n + 1)))
            return codes
        return wrapper

    def report(fn):
        def wrapper(*args, **kwargs):
            rep = fn(*args, **kwargs)
            cap.reports.append(rep)
            return rep
        return wrapper

    with patched([
            (census, "rejection_sample_batch",
             rejection(census.rejection_sample_batch)),
            (census, "switch_chain_batch", switch(census.switch_chain_batch)),
            (census, "estimate_disconnection",
             report(census.estimate_disconnection))]):
        yield cap


def gate(wl: Workload, first: Unit, first_cap: Capture) -> Tuple[Unit, List[str]]:
    """Rerun unit 0 single-threaded and check it against the warm-up run.

    The rerun must give the same output bytes (for tightness-twos, threads 1
    against threads 2) and, where the warm-up ran in this process, the same
    sampled rows.  Every row the census sampled in either run must be a
    simple realization of its sequence, and every census report made inside
    a unit must be consistent.
    """
    with captured() as cap:
        again = wl.run_unit(0, threads=1)
    problems = list(wl.static_problems())
    if again.output != first.output:
        problems.append(f"rerun of unit 0 at threads=1 differs from the run "
                        f"at threads={wl.threads}")
    if first_cap.rows and not (
            len(first_cap.rows) == len(cap.rows)
            and all(np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
                    for a, b in zip(first_cap.rows, cap.rows))):
        problems.append("rerun of unit 0 sampled different rows")
    if isinstance(wl, (TightnessTwos, Census)) and not cap.rows:
        problems.append("no sampler output was captured")
    for degrees, lo, hi in first_cap.rows + cap.rows:
        k = int(bad_rows(degrees, lo, hi).sum())
        if k:
            problems.append(f"{k} sampled rows are not simple realizations")
    for rep in first_cap.reports + cap.reports:
        problems += report_problems(rep, wl.TRIALS)
    if problems:
        again.failed = max(again.failed, 1)
    return again, problems


# Traced run: names degconn modules import from each other, wrapped in the
# importing module, and entry points the benchmark calls, wrapped on the
# workload object.  Span names are the layer names of the per-layer metrics.
PROGRAM_SPANS = (
    (census, "rejection_sample_batch", "sampler.rejection"),
    (census, "switch_chain_batch", "sampler.switch"),
    (census, "estimate_disconnection", "census"),
    (census, "validate_sequence", "degseq"),
    (census, "compute_invariants", "degseq"),
    (census, "theorem1_bound", "degseq"),
)
GENERATOR_SPANS = ((census, "enumerate_realizations", "exact.enum"),)
ENTRY_SPANS = {
    "tightness_experiment": "census.tightness",
    "estimate_disconnection": "census",
    "exact_connectivity_oracle": "census.oracle",
    "rejection_sample_batch": "sampler.rejection",
    "SimpleGraph": "graphs.build",
    "explore_components": "explore",
    "check_trace": "explore.check",
}

_switch_seq = _argument(sampler.switch_chain_batch, "seq")
_switch_steps = _argument(sampler.switch_chain_batch, "steps")


def _switch_counters(args, kwargs, codes):
    steps = _switch_steps(args, kwargs)
    if steps is None:
        steps = sampler.default_chain_steps(_switch_seq(args, kwargs).m)
    return {"chain_steps": steps * codes.shape[0]}


COUNTERS = {
    "sampler.rejection": lambda a, k, res: {"graphs": res[0].shape[0],
                                            "matchings": res[2]},
    "sampler.switch": _switch_counters,
    "census": lambda a, k, rep: {"components": rep.components_total,
                                 "fallback": fallback_components(rep)},
    "census.oracle": lambda a, k, o: {"realizations": o.realization_count},
    "explore": lambda a, k, traces: {
        "records": sum(len(tr.records) for tr in traces)},
}


def traced_targets(tracer, wl: Workload):
    """(owner, attribute, wrapper) triples for `spans.patched`."""
    out = [(mod, attr, tracer.wrap(span, getattr(mod, attr), COUNTERS.get(span)))
           for mod, attr, span in PROGRAM_SPANS]
    out += [(mod, attr, tracer.wrap_generator(span, getattr(mod, attr)))
            for mod, attr, span in GENERATOR_SPANS]
    out += [(wl, attr, tracer.wrap(span, getattr(wl, attr), COUNTERS.get(span)))
            for attr, span in ENTRY_SPANS.items() if hasattr(wl, attr)]
    return out
