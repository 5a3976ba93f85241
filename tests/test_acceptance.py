"""End-to-end acceptance suite: the ten headline guarantees.

Each test prints one ``ACCEPT <nn> <name>: PASS (...)`` line with its
measured numbers; run pytest with ``-rA`` (or ``-s``) to see the lines on
green runs.  A failing guarantee surfaces as that test's FAILED line.

Statistical checks run under the fixed master seed below with margins wide
enough (3 sigma, or chi-square at p > 0.001) that a green run is stable; a
red run signals a regression, not sampling noise.  Exhaustive checks
(realization sweeps, frozen bytes, forced verdicts) are exact and carry no
tolerance at all.
"""

import json
import math
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import chi2

from degconn import (DegreeSequence, InvalidSwitch, Matching, SimpleGraph,
                     check_trace, conditional_edge_probability,
                     connected_components, estimate_disconnection,
                     exact_connectivity_oracle, explore, explore_components,
                     half_edge_owner, rejection_sample_batch, switching,
                     tightness_experiment)
from degconn import families
from degconn.census import multigraph_edge_component_stats
from degconn.cli import main as cli_main
from degconn.exact import (count_realizations, enumerate_realizations,
                           graphical_multisets)
from degconn.sampler import switch_chain_batch
from degconn.streams import substream

SEED = 20260823

GOLD = np.uint64(0x9E3779B97F4A7C15)

K4_CSV = ("i,v_i,d_i,J,K,L,X,X_star\r\n"
          "1,1,3,0,0,0,6,2.7\r\n"
          "2,2,2,0,0,2,2,1.8\r\n"
          "3,3,1,0,0,1,0,0.9\r\n")


def _pass(tag: str, detail: str) -> None:
    print(f"ACCEPT {tag}: PASS ({detail})")


def _fold(codes: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit hash of each row of canonical edge codes."""
    h = np.zeros(codes.shape[0], dtype=np.uint64)
    for j in range(codes.shape[1]):
        h = h * GOLD + codes[:, j].astype(np.uint64)
    return h


def _realization_hashes(degrees) -> np.ndarray:
    """One hash per labeled simple realization, via exhaustive enumeration."""
    n = len(degrees)
    m = sum(degrees) // 2
    buf = np.empty((65536, m), dtype=np.int64)
    fill = 0
    parts = []
    for edges in enumerate_realizations(degrees):
        row = buf[fill]
        for j, (u, v) in enumerate(edges):
            row[j] = u * (n + 1) + v
        fill += 1
        if fill == buf.shape[0]:
            parts.append(_fold(buf))
            fill = 0
    if fill:
        parts.append(_fold(buf[:fill]))
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(parts)


def test_01_sampler_uniformity_exhaustive():
    """Both samplers agree with exhaustive enumeration on every graphical
    degree multiset with at most 16 half-edges."""
    t0 = time.monotonic()
    seqs = graphical_multisets(16)
    assert len(seqs) == 209
    trials, chains = 100_000, 10_000
    total_graphs = 0
    singles = 0
    bucketed = 0
    min_p = 1.0
    max_tv = 0.0
    for idx, degrees in enumerate(seqs):
        seq = DegreeSequence(list(degrees))
        n = seq.n
        sorted_h = np.sort(_realization_hashes(degrees))
        k = int(sorted_h.size)
        assert k > 0
        assert k == count_realizations(degrees), degrees
        # the hash must be injective here for counts to mean anything
        assert int(np.unique(sorted_h).size) == k, degrees
        total_graphs += k

        lo, hi, _ = rejection_sample_batch(seq, trials,
                                           substream(SEED, 3 * idx),
                                           max_attempts=50_000_000)
        h = _fold(lo.astype(np.int64) * (n + 1) + hi)
        pos = np.searchsorted(sorted_h, h)
        assert int(pos.max()) < k and bool(np.all(sorted_h[pos] == h)), degrees
        if k == 1:
            # chi-square has no degrees of freedom; the membership check
            # above already pins every draw to the unique realization
            singles += 1
        elif k > 20_000:
            # bucket by hash so expected cell counts stay comfortably large
            bucketed += 1
            mass = np.bincount((sorted_h % np.uint64(500)).astype(np.int64),
                               minlength=500)
            obs = np.bincount((h % np.uint64(500)).astype(np.int64),
                              minlength=500)
            keep = mass > 0
            exp = trials * mass[keep] / k
            stat = float((((obs[keep] - exp) ** 2) / exp).sum())
            p = float(chi2.sf(stat, int(keep.sum()) - 1))
            min_p = min(min_p, p)
            assert p > 0.001, (degrees, p)
        else:
            counts = np.bincount(pos, minlength=k)
            exp = trials / k  # >= 5 by the bucketing threshold above
            stat = float((((counts - exp) ** 2) / exp).sum())
            p = float(chi2.sf(stat, k - 1))
            min_p = min(min_p, p)
            assert p > 0.001, (degrees, p)

        rows = switch_chain_batch(seq, None, chains,
                                  substream(SEED, 3 * idx + 1))
        hc = _fold(rows)
        pos = np.searchsorted(sorted_h, hc)
        assert int(pos.max()) < k and bool(np.all(sorted_h[pos] == hc)), degrees
        if k <= 32:
            empirical = np.bincount(pos, minlength=k) / chains
            target = np.full(k, 1.0 / k)
        else:
            empirical = np.bincount((hc % np.uint64(32)).astype(np.int64),
                                    minlength=32) / chains
            target = np.bincount((sorted_h % np.uint64(32)).astype(np.int64),
                                 minlength=32) / k
        tv = 0.5 * float(np.abs(empirical - target).sum())
        max_tv = max(max_tv, tv)
        assert tv < 0.05, (degrees, tv)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _pass("01 sampler-uniformity",
          f"{len(seqs)} sequences, {total_graphs} realizations; rejection "
          f"chi2 min p={min_p:.4f} ({singles} single-realization sequences "
          f"checked by identity, {bucketed} bucketed), switch-chain max "
          f"TV={max_tv:.3f}; {elapsed:.0f}s")


def test_02_oracle_monte_carlo_agreement(capsys):
    """Exact oracle verdicts, and Monte Carlo estimates within 3 sigma."""

    def oracle_json(seq_text):
        code = cli_main(["oracle", "--seq", seq_text])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    assert oracle_json("2 2 2 2 2 2")["probability_connected"] == "6/7"
    assert oracle_json("1 1")["probability_connected"] == "1/1"
    assert oracle_json("1 1 1 1")["probability_connected"] == "0/1"

    trials = 100_000
    rep = estimate_disconnection(DegreeSequence([2] * 6), trials, SEED)
    p = 1.0 / 7.0
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rep.p_hat - p) <= 3 * sigma, rep.p_hat
    rep_edge = estimate_disconnection(DegreeSequence([1, 1]), trials, SEED)
    assert rep_edge.p_hat == 0.0 and rep_edge.disconnected == 0
    rep_pair = estimate_disconnection(DegreeSequence([1, 1, 1, 1]), trials,
                                      SEED)
    assert rep_pair.p_hat == 1.0 and rep_pair.disconnected == trials
    _pass("02 oracle-vs-monte-carlo",
          f"cycle sequence p_hat={rep.p_hat:.5f} vs 1/7 within "
          f"{3 * sigma:.5f}; degenerate sequences exact at {trials} trials")


def test_03_exploration_invariants_bulk():
    """Exploration traces satisfy every per-step identity over a million-plus
    recorded iterations, and their components match a union-find sweep."""
    t0 = time.monotonic()
    quotas = [
        (families.regular(3, 10), 2000),
        (families.regular(3, 50), 3000),
        (families.regular(3, 100), 6500),
        (families.with_leaves(10, 3, 60), 3000),
        (families.with_twos(12, 3, 60), 3000),
    ]
    records = 0
    graphs = 0
    for fam_idx, (seq, quota) in enumerate(quotas):
        # short chains: the identities under test are per-graph facts, so
        # the chain only needs to diversify which realizations we visit
        rows = switch_chain_batch(seq, 4 * seq.m, quota,
                                  substream(SEED, 700 + fam_idx))
        side = seq.n + 1
        for row in rows:
            edges = [(int(c) // side, int(c) % side) for c in row]
            g = SimpleGraph(seq.n, edges)
            traces = explore_components(g)
            assert ({frozenset(t.component) for t in traces}
                    == {frozenset(c) for c in connected_components(g)})
            for t in traces:
                bad = check_trace(t)
                assert not bad, (seq.degrees[0], seq.n, bad)
                records += len(t.records)
            graphs += 1
    assert records >= 1_000_000
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _pass("03 exploration-invariants",
          f"{records} recorded iterations over {graphs} sampled graphs, 0 "
          f"violations, components match union-find; {elapsed:.0f}s")


def test_04_leaf_pair_component_mean():
    """The mean count of two-leaf components in the unconditioned pairing
    model matches the closed form (n1 choose 2) / (2m - 1)."""
    seq = DegreeSequence([1] * 20 + [3] * 100)
    n1 = sum(1 for d in seq.degrees if d == 1)
    trials = 100_000
    # a leaf stub's partner is uniform over the other 2m - 1 stubs, so each
    # leaf pair forms its own component with probability 1 / (2m - 1)
    exact = Fraction(math.comb(n1, 2), 2 * seq.m - 1)
    st = multigraph_edge_component_stats(seq, trials, SEED)
    gap = abs(st["mean"] - float(exact))
    assert gap <= 3 * st["sem"], (st["mean"], float(exact), st["sem"])
    # the tempting miscount divides by the m - 1 remaining edge slots
    # instead of the 2m - 1 remaining stubs; the data rejects it decisively
    foil = Fraction(math.comb(n1, 2), seq.m - 1)
    foil_gap = abs(st["mean"] - float(foil))
    assert foil_gap > 30 * st["sem"]
    _pass("04 leaf-pair-mean",
          f"mean={st['mean']:.4f} vs {exact} = {float(exact):.4f}, gap "
          f"{gap:.4f} <= 3*sem = {3 * st['sem']:.4f}; the m-1 denominator "
          f"is {foil_gap / st['sem']:.0f} sems away")


def test_05_frozen_exploration_trace(capsys):
    """The complete-graph-on-four exploration is frozen byte for byte."""
    g = SimpleGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    tr = explore(g, 1)
    got = [(r.i, r.v, r.d_i, r.J, r.K, r.L, r.X, r.X_star)
           for r in tr.records]
    assert got == [(1, 1, 3, 0, 0, 0, 6, 2.7),
                   (2, 2, 2, 0, 0, 2, 2, 1.8),
                   (3, 3, 1, 0, 0, 1, 0, 0.9)]
    assert tr.to_csv_text() == K4_CSV
    code = cli_main(["explore", "--seq", "3 3 3 3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0 and out == K4_CSV
    _pass("05 frozen-trace", "K4 rows and CSV bytes exact, CLI matches")


def _partial_matchings_up_to(ids, max_pairs):
    """Every partial matching over `ids` with at most `max_pairs` pairs."""
    ids = list(ids)
    pairs = []

    def rec(i, used):
        if i == len(ids):
            yield list(pairs)
            return
        if ids[i] in used:
            yield from rec(i + 1, used)
            return
        yield from rec(i + 1, used)  # leave ids[i] unmatched
        if len(pairs) < max_pairs:
            for j in range(i + 1, len(ids)):
                if ids[j] in used:
                    continue
                pairs.append((ids[i], ids[j]))
                yield from rec(i + 1, used | {ids[i], ids[j]})
                pairs.pop()

    yield from rec(0, frozenset())


def test_06_conditional_pairing_bound():
    """Wherever the low-degree hypotheses hold, the conditional probability
    that two given stubs pair is at most 4 / (3m)."""
    seqs = graphical_multisets(12)
    assert len(seqs) == 65
    instances = 0
    violations = 0
    scanned = 0
    for degrees in seqs:
        seq = DegreeSequence(list(degrees))
        m = seq.m
        d_star = max(seq.degrees)
        bound = Fraction(4, 3 * m)
        max_pairs = int((m / 8) // 2)  # a matched pair occupies two stubs
        for chosen in _partial_matchings_up_to(range(2 * m), max_pairs):
            matched = {e for p in chosen for e in p}
            mm = Matching.empty(seq)
            for a, b in chosen:
                mm = mm.with_pair(a, b)
            for hv in range(2 * m):
                if hv in matched:
                    continue
                for hw in range(2 * m):
                    if hw == hv or hw in matched:
                        continue
                    if half_edge_owner(seq, hv) == half_edge_owner(seq, hw):
                        continue
                    scanned += 1
                    dw = seq.degree(half_edge_owner(seq, hw))
                    if not (dw <= math.sqrt(m) / 10 or d_star <= m / 100):
                        continue
                    instances += 1
                    p = conditional_edge_probability(seq, mm, hv, hw)
                    if p > bound:
                        violations += 1
    assert violations == 0
    detail = (f"{scanned} stub pairs scanned across {len(seqs)} sequences, "
              f"{instances} met the degree hypotheses, {violations} "
              f"violations")
    if instances == 0:
        detail += ("; hypotheses are unsatisfiable at this scale "
                   "(sqrt(m)/10 < 1 <= every degree), so the bound holds "
                   "vacuously")
    _pass("06 conditional-pairing-bound", detail)


def test_07_forced_verdicts():
    """Sequences whose verdict is forced: more leaves than edges can never
    connect (single-edge aside), stars and double stars always do."""
    trials = 20_000
    forced_disconnected = [
        [1, 1, 1, 1], [1] * 6, [1] * 8, [1, 1, 1, 1, 2],
        [1] * 5 + [3], [1] * 6 + [2],
    ]
    for degrees in forced_disconnected:
        seq = DegreeSequence(degrees)
        n1 = sum(1 for d in seq.degrees if d == 1)
        assert n1 > seq.m and seq.n >= 3
        rep = estimate_disconnection(seq, trials, SEED)
        assert rep.p_hat == 1.0 and rep.disconnected == trials, degrees
        assert exact_connectivity_oracle(seq).probability_connected == 0
    always_connected = [families.star(6), families.star(10),
                        families.two_stars(8), families.two_stars(12)]
    for seq in always_connected:
        # stars defeat rejection sampling (almost every pairing loops or
        # doubles an edge), and these sequences have a unique realization,
        # so sample them through the chain
        rep = estimate_disconnection(seq, 5000, SEED, sampler="switch-chain")
        assert rep.p_hat == 0.0 and rep.disconnected == 0, seq.degrees
    assert exact_connectivity_oracle(
        families.star(6)).probability_connected == 1
    # the lone exception: a single edge has more leaves than edges (2 > 1)
    # yet is connected; no larger sequence manages both
    rep = estimate_disconnection(DegreeSequence([1, 1]), trials, SEED)
    assert rep.p_hat == 0.0
    assert exact_connectivity_oracle(
        DegreeSequence([1, 1])).probability_connected == 1
    _pass("07 forced-verdicts",
          f"{len(forced_disconnected)} leaf-heavy sequences disconnected and "
          f"{len(always_connected)} star-like sequences connected at every "
          f"trial; single-edge exception (2 leaves > 1 edge, connected) "
          f"verified exactly")


def test_08_switching_pair_counts_involution():
    """Between any two distinct realizations there are either zero or exactly
    two switchings, and every switching is undone by its reverse."""
    t0 = time.monotonic()
    seqs = graphical_multisets(12)
    graphs = 0
    applications = 0
    targets = 0
    for degrees in seqs:
        n = len(degrees)
        for edges in enumerate_realizations(degrees):
            g = SimpleGraph(n, list(edges))
            e = g.edges()
            per_target = Counter()
            for i in range(len(e)):
                for k in range(len(e)):
                    if i == k:
                        continue
                    for flip in (False, True):
                        x, y = (e[i][1], e[i][0]) if flip else e[i]
                        u, v = e[k]
                        try:
                            j = switching(g, (x, y), (u, v))
                        except InvalidSwitch:
                            continue
                        assert switching(j, (x, v), (u, y)) == g
                        per_target[j.canonical_key()] += 1
                        applications += 1
            # a target pins down which two edges were removed, and the sweep
            # reaches it through exactly two oriented proposals, so every
            # count is 2 precisely when switch counts are zero-or-two
            assert all(c == 2 for c in per_target.values()), degrees
            targets += len(per_target)
            graphs += 1
    elapsed = time.monotonic() - t0
    _pass("08 switching-counts",
          f"{graphs} realizations over {len(seqs)} sequences, "
          f"{applications} switchings applied and inverted, {targets} "
          f"targets each hit exactly twice; {elapsed:.0f}s")


def test_09_tightness_ratio():
    """The empirical triangle-component mean tracks its closed-form bound
    within a modest constant factor across a growing family."""
    t0 = time.monotonic()
    table = tightness_experiment(families.twos_tenth_of_m, (60, 120, 240),
                                 1_000_000, SEED, family_name="with-twos",
                                 threads=4)
    tri = {r.m: r for r in table.rows if r.cls == "triangle"}
    assert sorted(tri) == [60, 120, 240]
    ratios = {m: row.ratio for m, row in tri.items()}
    assert all(r is not None and math.isfinite(r) and r > 0
               for r in ratios.values()), ratios
    c1 = min(ratios.values())
    c2 = max(ratios.values())
    assert c2 / c1 <= 20.0, ratios
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    _pass("09 tightness-ratio",
          "mean/bound ratios "
          + ", ".join(f"m={m}: {ratios[m]:.3f}" for m in sorted(ratios))
          + f"; c1={c1:.3f}, c2={c2:.3f}, spread {c2 / c1:.2f} <= 20; "
          f"{elapsed:.0f}s")


def _cli_bytes(args):
    proc = subprocess.run([sys.executable, "-m", "degconn.cli", *args],
                          capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_10_cli_byte_identity():
    """Every subcommand's output is byte-identical across reruns, and the
    threaded commands are identical at 1, 4, and 8 threads."""
    t0 = time.monotonic()
    reruns = [
        ["check", "--seq", "3 3 3 3"],
        ["check", "--seq", "1 1 2 2 3 3", "--format", "csv"],
        ["oracle", "--seq", "2 2 2 2 2 2"],
        ["oracle", "--seq", "1 1 2 2", "--format", "csv"],
        ["sample", "--seq", "2 2 3 3 3 3", "--trials", "20", "--seed", "11",
         "--format", "csv"],
        ["sample", "--seq", "3 3 3 3 3 3", "--trials", "10", "--seed", "7",
         "--sampler", "switch-chain"],
        ["explore", "--seq", "2 2 2 2 2 2", "--seed", "5", "--mode",
         "multigraph"],
        ["explore", "--seq", "3 3 3 3", "--format", "csv"],
        ["census", "--seq", "2 2 2 2 2 2", "--trials", "500", "--seed", "3",
         "--format", "csv"],
        ["tightness", "--family", "with-leaves", "--sizes", "30,60",
         "--trials", "400", "--seed", "3", "--format", "csv"],
    ]
    for args in reruns:
        assert _cli_bytes(args) == _cli_bytes(args), args
    census = ["census", "--seq", "1 1 1 1 2 2 3 3 3 3", "--trials", "2600",
              "--seed", "13"]
    tightness = ["tightness", "--family", "with-twos", "--sizes", "60",
                 "--trials", "1500", "--seed", "13"]
    for base in (census, tightness):
        outs = []
        for threads in ("1", "4", "8"):
            got = _cli_bytes(base + ["--threads", threads])
            assert got == _cli_bytes(base + ["--threads", threads])
            outs.append(got)
        assert outs[0] == outs[1] == outs[2], base
    elapsed = time.monotonic() - t0
    _pass("10 cli-byte-identity",
          f"{len(reruns)} commands rerun identical; census and tightness "
          f"identical at 1, 4, 8 threads; {elapsed:.0f}s")
