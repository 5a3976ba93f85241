"""Component census: classification, exact oracles, Monte Carlo estimates,
and the tightness experiment."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degconn import (ComponentTaxonomy, DegreeSequence, Matching, SimpleGraph,
                     TooLarge, TrialsTooFew, classify_component,
                     classify_components, conditional_edge_probability,
                     connected_components, estimate_disconnection,
                     exact_connectivity_oracle, rejection_sample_batch,
                     tightness_experiment)
from degconn import census as census_mod
from degconn import sampler as sampler_mod
from degconn.census import (_NAMED_SIGNATURES, _batch_census,
                            clopper_pearson_interval,
                            exact_multigraph_edge_component_mean,
                            large_component_threshold,
                            multigraph_edge_component_stats, wilson_interval)
from degconn.exact import (count_connectivity, count_realizations,
                           enumerate_realizations, graphical_multisets,
                           iter_matching_extensions)
from degconn.families import regular, star, two_stars, with_leaves
from degconn.graphs import half_edge_owner, owner_array
from degconn.streams import batch_ranges, substream


def test_classify_component_named_classes():
    assert classify_component([1, 1]) == "edge"
    assert classify_component([1, 2, 1]) == "path_len_2"
    assert classify_component([1, 2, 2, 2, 1]) == "path_len_4"
    assert classify_component([2, 2, 2]) == "triangle"
    assert classify_component([2, 2, 2, 2]) == "cycle_len_4"
    assert classify_component([2, 2, 2, 2, 2, 2]) == "cycle_len_6"
    assert classify_component([1, 2, 2, 3]) == "triangle_pendant"
    assert classify_component([2, 2, 3, 3]) == "k4_minus_e"
    assert classify_component([3, 3, 3, 3]) == "k4"
    # star K_{1,3}: a tree but with 3 leaves, so not a path
    assert classify_component([1, 1, 1, 3]) == "other_small_1113"
    assert classify_component([1] * 6 + [6]) == "large_7v_6e"
    # paths and cycles are named only up to 6 vertices
    assert classify_component([1, 2, 2, 2, 2, 2, 1]) == "large_7v_6e"
    assert classify_component([2] * 7) == "large_7v_7e"


def test_named_signatures_match_small_graph_atlas():
    # (nv, ne, leaves) identifies each named class uniquely among all
    # connected graphs on <= 6 vertices: every atlas graph carrying a named
    # signature is isomorphic to the intended shape
    paw = nx.Graph([(0, 1), (0, 2), (1, 2), (2, 3)])
    diamond = nx.Graph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    reference = {
        "edge": nx.path_graph(2),
        "path_len_2": nx.path_graph(3),
        "path_len_3": nx.path_graph(4),
        "path_len_4": nx.path_graph(5),
        "path_len_5": nx.path_graph(6),
        "triangle": nx.cycle_graph(3),
        "cycle_len_4": nx.cycle_graph(4),
        "cycle_len_5": nx.cycle_graph(5),
        "cycle_len_6": nx.cycle_graph(6),
        "triangle_pendant": paw,
        "k4_minus_e": diamond,
        "k4": nx.complete_graph(4),
    }
    seen = set()
    for g in nx.graph_atlas_g():
        nv = g.number_of_nodes()
        if not 2 <= nv <= 6 or not nx.is_connected(g):
            continue
        degs = sorted(d for _, d in g.degree())
        sig = (nv, g.number_of_edges(), sum(1 for d in degs if d == 1))
        cls = classify_component(degs)
        if sig in _NAMED_SIGNATURES:
            assert cls == _NAMED_SIGNATURES[sig], (sig, cls)
            assert nx.is_isomorphic(g, reference[cls]), (sig, cls)
            seen.add(sig)
        else:
            assert cls not in _NAMED_SIGNATURES.values(), (sig, cls)
    assert seen == set(_NAMED_SIGNATURES)


def test_connected_components_examples():
    k4 = SimpleGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert connected_components(k4) == [[1, 2, 3, 4]]
    two = SimpleGraph(4, [(1, 3), (2, 4)])
    assert connected_components(two) == [[1, 3], [2, 4]]
    assert classify_components(two).counts == Counter({"edge": 2})


@st.composite
def simple_graphs(draw):
    """Random simple graphs on 1..n, with isolated vertices and with no
    edges at all among them."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)
                 if pairs else st.just([]))
    return SimpleGraph(n, edges)


@settings(max_examples=200, deadline=None)
@given(simple_graphs())
def test_grouping_and_naming_match_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(1, g.n + 1))
    ref.add_edges_from(g.edges())
    components = [sorted(c) for c in nx.connected_components(ref)]
    assert connected_components(g) == sorted(components)
    assert classify_components(g).counts == Counter(
        classify_component([ref.degree(v) for v in c]) for c in components)


def test_oracle_frozen_values():
    o = exact_connectivity_oracle(DegreeSequence([2] * 6))
    assert o.probability_connected == Fraction(6, 7)
    assert o.realization_count == 70
    assert o.taxonomy_means() == {"cycle_len_6": Fraction(6, 7),
                                  "triangle": Fraction(2, 7)}

    assert exact_connectivity_oracle(
        DegreeSequence([1, 1, 2])).probability_connected == 1
    assert exact_connectivity_oracle(
        DegreeSequence([1, 2, 2, 3])).probability_connected == 1
    # every realization of (1,1,1,1) is two disjoint edges
    o4 = exact_connectivity_oracle(DegreeSequence([1, 1, 1, 1]))
    assert o4.probability_connected == 0
    assert o4.realization_count == 3
    assert o4.taxonomy_totals.counts == Counter({"edge": 6})
    assert o4.taxonomy_means() == {"edge": Fraction(2)}
    assert exact_connectivity_oracle(
        DegreeSequence([3, 3, 3, 3])).probability_connected == 1


@pytest.mark.parametrize("degrees,whole", [
    ([2] * 7, "large_7v_7e"),
    ([1, 1, 2, 2, 2, 2, 2], "large_7v_6e"),
])
def test_oracle_and_census_share_component_keys(degrees, whole):
    seq = DegreeSequence(degrees)
    oracle_keys = set(exact_connectivity_oracle(seq).taxonomy_totals.counts)
    census = estimate_disconnection(seq, 4000, seed=17)
    census_keys = set(census.taxonomy.counts)
    assert oracle_keys == census_keys
    assert whole in census_keys


def _enumerated_oracle(degrees):
    """(P(connected), realization count, taxonomy totals) by enumerating
    every realization and grouping it with connected_components: the
    reference for the counting oracle."""
    shapes = Counter()
    total = connected = 0
    for edges in enumerate_realizations(degrees):
        components = connected_components(SimpleGraph(len(degrees), edges))
        total += 1
        connected += len(components) == 1
        shapes.update(tuple(sorted(degrees[v - 1] for v in comp))
                      for comp in components)
    counts = Counter()
    for degs, c in shapes.items():
        counts[classify_component(degs)] += c
    return Fraction(connected, total), total, counts


def _counted_oracle(degrees):
    o = exact_connectivity_oracle(DegreeSequence(degrees))
    return (o.probability_connected, o.realization_count,
            o.taxonomy_totals.counts)


def test_counting_oracle_equals_enumeration():
    seqs = graphical_multisets(14)
    assert len(seqs) == 119
    for degrees in seqs:
        assert _counted_oracle(degrees) == _enumerated_oracle(degrees), degrees


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(graphical_multisets(12)), st.randoms())
def test_counting_oracle_is_invariant_under_relabelling(degrees, rnd):
    shuffled = list(degrees)
    rnd.shuffle(shuffled)
    got = _counted_oracle(shuffled)
    assert got == _counted_oracle(list(degrees))
    assert got == _enumerated_oracle(shuffled)


def test_oracle_guards():
    big = DegreeSequence([2] * 11)
    messages = set()
    for oracle in (exact_connectivity_oracle,
                   lambda s: conditional_edge_probability(
                       s, Matching.empty(s), 0, 2)):
        with pytest.raises(TooLarge) as err:
            oracle(big)
        messages.add(str(err.value))
    assert messages == {"2m = 22 exceeds the enumeration limit of 20 "
                        "half-edges"}


def test_long_sequences_count_or_refuse():
    # the counting recursion goes one level per removed vertex: a sequence
    # too long for the interpreter's stack is TooLarge, never RecursionError
    leaves = [1] * 1000
    total, connected, shapes = count_connectivity(leaves)
    assert total == math.prod(range(999, 0, -2))
    assert connected == 0 and shapes == {(1, 1): 500 * total}
    try:
        assert count_realizations(leaves) == total
    except TooLarge as err:
        assert "1000 vertices" in str(err)


def test_estimate_extreme_sequences():
    # (1,1,1,1): every realization is two disjoint edges, never connected
    r = estimate_disconnection(DegreeSequence([1, 1, 1, 1]), 200, seed=1)
    assert r.disconnected == 200 and r.p_hat == 1.0
    assert r.taxonomy.counts == Counter({"edge": 400})
    assert r.second_largest_edges == {1: 200}
    # K4 is forced: never disconnected
    r2 = estimate_disconnection(DegreeSequence([3, 3, 3, 3]), 200, seed=2)
    assert r2.disconnected == 0 and r2.taxonomy.counts == Counter({"k4": 200})
    # stars are forced connected
    for seq in (star(8), two_stars(8)):
        rs = estimate_disconnection(seq, 100, seed=3)
        assert rs.disconnected == 0


def test_estimate_matches_oracle_cycles():
    # P(disconnected) for (2,...,2) with 6 vertices is exactly 1/7
    r = estimate_disconnection(DegreeSequence([2] * 6), 20000, seed=7)
    p = 1 / 7
    sigma = (p * (1 - p) / 20000) ** 0.5
    assert abs(r.p_hat - p) < 3 * sigma
    assert r.wilson_95[0] <= p <= r.wilson_95[1]
    assert r.clopper_pearson_95[0] <= p <= r.clopper_pearson_95[1]
    means = r.taxonomy_means()
    assert abs(means["cycle_len_6"] - 6 / 7) < 0.02
    assert abs(means["triangle"] - 2 / 7) < 0.02
    assert r.taxonomy.total() == r.components_total


def test_samplers_agree():
    seq = DegreeSequence([1, 1, 2, 2, 3, 3])
    a = estimate_disconnection(seq, 8000, seed=11, sampler="rejection")
    b = estimate_disconnection(seq, 8000, seed=11, sampler="switch-chain")
    # independent estimates of the same probability: compare at ~4 sigma of
    # the difference
    sigma = (2 * 0.25 / 8000) ** 0.5
    assert abs(a.p_hat - b.p_hat) < 4 * sigma
    assert b.steps is not None and a.steps is None


def test_thread_count_does_not_change_report():
    seq = DegreeSequence([1, 1, 2, 2])
    for sampler in ("rejection", "switch-chain"):
        a = estimate_disconnection(seq, 3000, seed=5, sampler=sampler,
                                   threads=1)
        b = estimate_disconnection(seq, 3000, seed=5, sampler=sampler,
                                   threads=4)
        assert a.to_json_dict() == b.to_json_dict(), sampler


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the job
    count of each map, runs the jobs in process."""
    workers = []
    maps = []

    def __init__(self, max_workers):
        RecordingPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        jobs = list(jobs)
        RecordingPool.maps.append(len(jobs))
        return map(fn, jobs)


@pytest.mark.parametrize("threads, cpus, workers", [
    (64, 8, 3),     # three batches
    (64, 2, 2),     # two cores
    (2, 8, 2),
    (64, None, None),  # unknown core count: one worker, no pool
    (1, 8, None),
])
def test_thread_count_is_clamped(monkeypatch, threads, cpus, workers):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: cpus)
    RecordingPool.workers = []
    seq = DegreeSequence([1, 1, 2, 2])
    report = estimate_disconnection(seq, 3000, seed=5, threads=threads)
    assert RecordingPool.workers == ([] if workers is None else [workers])
    serial = estimate_disconnection(seq, 3000, seed=5, threads=1)
    assert report.to_json_dict() == serial.to_json_dict()


def test_tightness_experiment_opens_one_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 8)
    RecordingPool.workers = []
    RecordingPool.maps = []
    sizes = (10, 12, 14)

    def run(threads):
        return tightness_experiment(lambda k: regular(3, k), sizes,
                                    trials=3000, seed=4, threads=threads)

    pooled = run(2)
    # every size's three batches go to one map: no barrier between sizes
    assert RecordingPool.workers == [2]
    assert RecordingPool.maps == [9]
    assert pooled == run(1)
    assert RecordingPool.workers == [2]
    assert RecordingPool.maps == [9]


def test_tightness_experiment_of_no_sizes_is_empty():
    table = tightness_experiment(lambda k: regular(3, k), sizes=(),
                                 trials=100, seed=1, threads=2)
    assert table.rows == ()
    assert table.to_csv_text() == \
        "size,n,m,d_star_ok,class,empirical_mean,u_value,ratio\n"


def scipy_loaded(code, module="scipy.stats"):
    """Whether running `code` in a fresh interpreter imports `module`."""
    src = str(Path(census_mod.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{code}\nprint({module!r} in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_stats_out():
    assert not scipy_loaded("import degconn")


def test_import_leaves_process_pool_out():
    # only a run with more than one worker opens the pool
    assert not scipy_loaded("import degconn", "concurrent.futures.process")


def test_tightness_experiment_leaves_scipy_stats_out():
    # the table needs no confidence interval
    assert not scipy_loaded(
        "from degconn import families, tightness_experiment\n"
        "tightness_experiment(families.twos_tenth_of_m, (60,), 50, 1)")


def test_oracle_leaves_scipy_sparse_out():
    # only the batch census needs scipy.sparse
    assert not scipy_loaded(
        "from degconn import DegreeSequence, exact_connectivity_oracle\n"
        "exact_connectivity_oracle(DegreeSequence([1, 1, 2, 2, 2]))",
        "scipy.sparse")


def test_estimate_rejects_bad_trials():
    with pytest.raises(TrialsTooFew):
        estimate_disconnection(DegreeSequence([2, 2, 2]), 0, seed=0)


def test_batched_census_agrees_with_per_graph_classification():
    seq = with_leaves(6, 3, 30)
    rng = substream(31, 0)
    lo, hi, _ = rejection_sample_batch(seq, 200, rng)
    tally = _batch_census(seq, lo, hi, large_component_threshold(seq.m))
    merged = ComponentTaxonomy()
    ncomp = 0
    disconnected = 0
    for r in range(200):
        g = SimpleGraph(seq.n, list(zip(lo[r].tolist(), hi[r].tolist())))
        t = classify_components(g)
        merged = merged.merge(t)
        ncomp += t.total()
        disconnected += int(t.total() > 1)
    assert tally.taxonomy.counts == merged.counts
    assert tally.components == ncomp
    assert tally.disconnected == disconnected
    assert sum(tally.second_largest_edges.values()) == 200


def coo_census_reference(seq, lo, hi, threshold):
    """The census tallies from the COO labelling _batch_census used before
    it built its CSR matrix from the sorted rows, tallied per graph."""
    from scipy import sparse
    from scipy.sparse import csgraph

    count, n = len(lo), seq.n
    block = np.arange(count, dtype=np.int64)[:, None] * n
    rows = (lo.astype(np.int64) - 1 + block).ravel()
    cols = (hi.astype(np.int64) - 1 + block).ravel()
    adj = sparse.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                            shape=(count * n, count * n))
    _, labels = csgraph.connected_components(adj, directed=False)
    edges_of = Counter(labels[rows].tolist())
    tally = census_mod._Tally(trials=count)
    for g in range(count):
        members = Counter(labels[g * n:(g + 1) * n].tolist())
        comps = sorted(((edges_of[c], c) for c in members), reverse=True)
        tally.components += len(comps)
        tally.disconnected += len(comps) > 1
        tally.two_large += sum(e > threshold for e, _ in comps) >= 2
        tally.second_largest_edges[comps[1][0] if len(comps) > 1 else 0] += 1
        for e, c in comps:
            degs = [seq.degrees[v] for v in range(n) if labels[g * n + v] == c]
            tally.taxonomy.add(classify_component(degs))
    return tally


def test_batch_census_csr_matches_coo_labelling():
    for seq, sampler in ((with_leaves(6, 3, 30), "rejection"),
                         (with_leaves(10, 3, 14), "switch-chain")):
        lo, hi, _ = census_mod.sample_batch(seq, sampler, 300,
                                            substream(17, 0), steps=200)
        threshold = 4.0
        tally = _batch_census(seq, lo, hi, threshold)
        want = coo_census_reference(seq, lo, hi, threshold)
        assert tally == want
        assert tally.disconnected and tally.two_large
    # rows that are not code-sorted would split a vertex's edges
    with pytest.raises(ValueError, match="code-sorted"):
        _batch_census(seq, lo[:, ::-1], hi[:, ::-1], threshold)


def test_interval_functions():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1 and 0.99 < hi <= 1.0
    lo, hi = clopper_pearson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = clopper_pearson_interval(100, 100)
    assert 0.96 < lo < 1 and hi == 1.0
    # CP covers the MLE and is wider than Wilson on small counts
    wl, wh = wilson_interval(3, 50)
    cl, ch = clopper_pearson_interval(3, 50)
    assert cl <= 3 / 50 <= ch
    assert cl <= wl and ch >= wh
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def _enumerated_multigraph_edge_component_mean(seq):
    """Mean number of two-leaf components over every perfect matching of
    the half-edges: the reference for the closed form."""
    leaf = [seq.degree(v) == 1 for v in range(1, seq.n + 1)]
    total = 0
    count = 0
    for matching in iter_matching_extensions(seq, Matching.empty(seq)):
        count += 1
        for a, b in matching.pairs():
            u = half_edge_owner(seq, a)
            w = half_edge_owner(seq, b)
            if u != w and leaf[u - 1] and leaf[w - 1]:
                total += 1
    return Fraction(total, count)


def test_multigraph_edge_component_exact_means():
    cases = {
        (1, 1, 1, 1): Fraction(2, 1),
        (1, 1, 2, 2): Fraction(1, 5),
        (1, 1, 1, 1, 2, 2): Fraction(6, 7),
        (1, 1, 2, 3, 3): Fraction(1, 9),
        # 2m = 320, far past the enumeration limit: 20*19/2 pairs / 319
        (1,) * 20 + (3,) * 100: Fraction(190, 319),
    }
    for degs, want in cases.items():
        assert exact_multigraph_edge_component_mean(
            DegreeSequence(list(degs))) == want
    for degs in graphical_multisets(12):
        seq = DegreeSequence(list(degs))
        assert (exact_multigraph_edge_component_mean(seq)
                == _enumerated_multigraph_edge_component_mean(seq)), degs


def argsort_two_leaf_reference(seq, trials, seed):
    """The two-leaf statistic before it shared the rejection pairing step:
    each matching is the argsort of a row of rng.random floats, in the same
    batches and substreams.  Kept as an independent reference."""
    leaf_of_half_edge = (np.asarray(seq.degrees) == 1)[owner_array(seq) - 1]
    s = s2 = 0
    hist = Counter()
    for b, start, stop in batch_ranges(trials,
                                       census_mod._MULTIGRAPH_BATCH_SIZE):
        rng = substream(seed, b)
        perm = np.argsort(rng.random((stop - start, 2 * seq.m)), axis=1)
        counts = (leaf_of_half_edge[perm[:, 0::2]]
                  & leaf_of_half_edge[perm[:, 1::2]]).sum(axis=1)
        s += int(counts.sum())
        s2 += int((counts.astype(np.int64) ** 2).sum())
        hist.update(counts.tolist())
    mean = s / trials
    sem = math.sqrt(max(s2 / trials - mean * mean, 0.0) / trials)
    return {"trials": trials, "seed": seed, "mean": mean, "sem": sem,
            "histogram": {str(k): v for k, v in sorted(hist.items())}}


@pytest.mark.parametrize("degrees, trials", [
    ([1] * 20 + [3] * 100, 5000), ([1, 1, 2, 2], 5000),
    ([1] * 4 + [2] * 6, 5000),
    # n > 2047, where owner labels would cut into the 53 float bits; the
    # 1-bit leaf flag never does
    ([1] * 3000 + [3] * 3000, 60)])
@pytest.mark.parametrize("seed", [1, 13])
def test_two_leaf_stats_match_argsort_reference(degrees, trials, seed):
    seq = DegreeSequence(degrees)
    assert (multigraph_edge_component_stats(seq, trials, seed)
            == argsort_two_leaf_reference(seq, trials, seed))


def test_two_leaf_stats_do_not_depend_on_block_size(monkeypatch):
    seq = DegreeSequence([1] * 20 + [3] * 100)
    monkeypatch.setattr(sampler_mod, "_BLOCK_ELEMENTS", 1 << 40)
    whole = multigraph_edge_component_stats(seq, 5000, seed=3)
    # 2m = 320: three rows per block, and 4096 and 904 rows per batch
    # leave a partial last block
    monkeypatch.setattr(sampler_mod, "_BLOCK_ELEMENTS", 1000)
    assert multigraph_edge_component_stats(seq, 5000, seed=3) == whole


def test_multigraph_edge_component_stats_match_exact():
    seq = DegreeSequence([1, 1, 2, 2])
    stats = multigraph_edge_component_stats(seq, 40000, seed=13)
    exact = float(exact_multigraph_edge_component_mean(seq))
    assert abs(stats["mean"] - exact) < 4 * stats["sem"] + 1e-12
    assert sum(stats["histogram"].values()) == 40000
    assert set(stats["histogram"]) <= {"0", "1"}


def test_tightness_experiment_shape_and_flags():
    table = tightness_experiment(lambda k: regular(3, k), sizes=(10, 12),
                                 trials=400, seed=3, family_name="cubic")
    assert len(table.rows) == 2 * 5
    by_size = {}
    for r in table.rows:
        by_size.setdefault(r.size, []).append(r)
    for size, rows in by_size.items():
        assert [r.cls for r in rows] == ["edge", "triangle",
                                         "triangle_pendant", "k4_minus_e",
                                         "k4"]
        for r in rows:
            assert r.n == size and r.m == 3 * size // 2
            assert r.d_star_ok == (9 <= r.m / 3)
            # classes needing leaves or degree-2 vertices cannot occur in a
            # cubic graph: mean 0 against bound 0 reports no ratio
            if r.cls in ("edge", "triangle", "triangle_pendant",
                         "k4_minus_e"):
                assert r.empirical_mean == 0.0 and r.u_value == 0.0
                assert r.ratio is None
    csv_text = table.to_csv_text()
    assert csv_text.splitlines()[0] == \
        "size,n,m,d_star_ok,class,empirical_mean,u_value,ratio"
    assert ",n/a" in csv_text
    j = table.to_json_dict()
    assert j["family"] == "cubic" and len(j["rows"]) == 10


def test_tightness_leafy_family_ratio_below_constant():
    table = tightness_experiment(lambda k: with_leaves(4, 3, k),
                                 sizes=(24,), trials=2000, seed=9,
                                 family_name="leafy")
    edge_row = [r for r in table.rows if r.cls == "edge"][0]
    assert edge_row.u_value > 0
    assert edge_row.ratio is not None and edge_row.ratio < 2.0
