"""Samplers: uniform matchings, rejection, Havel-Hakimi, switching chains,
and the conditional edge-probability oracle."""

import math
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from degconn import (AttemptsExhausted, DegconnError, DegreeSequence,
                     InvalidSwitch, Matching, NotGraphical, SimpleGraph,
                     conditional_edge_probability, default_chain_steps,
                     havel_hakimi_construct, random_matching,
                     rejection_sample_batch, switching)
from degconn import families
from degconn import sampler as sampler_mod
from degconn.census import sample_batch
from degconn.errors import NotExtendable, TooLarge
from degconn.exact import count_connectivity
from degconn.graphs import owner_array
from degconn.sampler import switch_chain_batch
from degconn.streams import substream


def test_random_matching_uniform_over_three():
    # degrees (2, 2): exactly 3 matchings, one of them the double loop
    seq = DegreeSequence([2, 2])
    rng = substream(123, 0)
    counts = Counter()
    trials = 30000
    for _ in range(trials):
        m = random_matching(seq, rng)
        counts[tuple(m.partner)] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 0.02


def test_random_matching_is_valid():
    seq = DegreeSequence([3, 2, 2, 1])
    m = random_matching(seq, substream(5, 0))
    m.validate()
    assert m.is_full


def loop_random_matching_reference(seq, rng):
    """The loop random_matching replaced: one permutation, consecutive
    entries paired one pair at a time."""
    perm = rng.permutation(2 * seq.m)
    partner = [0] * (2 * seq.m)
    for k in range(0, 2 * seq.m, 2):
        a, b = int(perm[k]), int(perm[k + 1])
        partner[a], partner[b] = b, a
    return partner


def test_random_matching_matches_loop_reference():
    for degrees in ([1, 1], [2, 2], [3, 2, 2, 1], [1] * 20 + [3] * 10):
        seq = DegreeSequence(degrees)
        for seed in range(25):
            mine, theirs = substream(seed, 3), substream(seed, 3)
            assert (random_matching(seq, mine).partner
                    == loop_random_matching_reference(seq, theirs))
            assert mine.random() == theirs.random()


def one_graph(seq, lo, hi):
    assert lo.shape == hi.shape == (1, seq.m)
    return SimpleGraph(seq.n, zip(lo[0].tolist(), hi[0].tolist()))


def test_rejection_sample_forced_triangle():
    seq = DegreeSequence([2, 2, 2])
    rng = substream(7, 0)
    for _ in range(5):
        lo, hi, attempts = sample_batch(seq, "rejection", 1, rng)
        assert one_graph(seq, lo, hi).edges() == [(1, 2), (1, 3), (2, 3)]
        assert attempts >= 1


def test_rejection_exhausts_on_infeasible_even_sum():
    seq = DegreeSequence([2, 2])  # only loops or a double edge exist
    # the one sampler dispatch refuses it before drawing
    with pytest.raises(NotGraphical):
        sample_batch(seq, "rejection", 1, substream(0, 0), max_attempts=300)
    with pytest.raises(AttemptsExhausted):
        rejection_sample_batch(seq, 2, substream(0, 0), max_attempts=300)


def test_attempts_exhausted_survives_pickling():
    err = pickle.loads(pickle.dumps(AttemptsExhausted(5)))
    assert isinstance(err, AttemptsExhausted)
    assert str(err) == "no simple graph after 5 attempts"
    assert err.attempts == 5 and err.exit_code == 3


def test_rejection_scalar_uniform_over_c4_labelings():
    # (2,2,2,2) has exactly 3 labeled realizations
    seq = DegreeSequence([2, 2, 2, 2])
    rng = substream(99, 0)
    counts = Counter()
    trials = 6000
    for _ in range(trials):
        lo, hi, _ = sample_batch(seq, "rejection", 1, rng)
        counts[tuple(one_graph(seq, lo, hi).edges())] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 0.03


def test_rejection_batch_matches_degree_sequence():
    seq = DegreeSequence([1, 1, 2, 3, 3])
    lo, hi, attempts = rejection_sample_batch(seq, 500, substream(3, 0))
    assert lo.shape == hi.shape == (500, seq.m)
    assert attempts >= 500
    for r in (0, 123, 499):
        g = SimpleGraph(seq.n, list(zip(lo[r].tolist(), hi[r].tolist())))
        assert g.degree_vector() == list(seq.degrees)
    # canonical row order: edge codes strictly increasing
    codes = lo.astype(np.int64) * (seq.n + 1) + hi
    assert (np.diff(codes, axis=1) > 0).all()


def reference_key_width(seq):
    """The width rule restated: 32-bit keys when a row of 2m keys with
    n.bit_length() owner bits ties with probability at most 1/16."""
    bits = seq.n.bit_length()
    tie_bound = Fraction(math.comb(2 * seq.m, 2) * 2**bits, 2**32)
    return 32 if tie_bound <= Fraction(1, 16) else 64


def reference_keys(rng, rows, two_m, width):
    """rows * two_m keys from one flat random_raw call: whole 64-bit words,
    or each word's low 32 bits then its high 32 bits."""
    words = rng.bit_generator.random_raw(rows * two_m * width // 64)
    if width == 32:
        words = np.stack([words & np.uint64(0xFFFFFFFF),
                          words >> np.uint64(32)], axis=1)
    return words.reshape(rows, two_m)


def argsort_rejection_reference(seq, count, rng, max_attempts=10**6):
    """Rejection sampling by argsort over the kernel's keys: each attempted
    matching ranks a row of 2m keys (reference_key_width wide) by the bits
    above the owner field, and a row that ties there, has a loop or has a
    double edge is rejected; same block-size rule.  Kept as an independent
    reference."""
    owners = owner_array(seq)
    two_m, m, n = 2 * seq.m, seq.m, seq.n
    bits = n.bit_length()
    width = reference_key_width(seq)
    out_lo = np.empty((count, m), dtype=np.int32)
    out_hi = np.empty((count, m), dtype=np.int32)
    got = attempts = drawn = 0
    while got < count:
        if drawn >= max_attempts:
            raise AttemptsExhausted(max_attempts)
        if drawn:
            acceptance = max(got / drawn, 1.0 / (4 * m + 4))
            rows = int((count - got) / acceptance * 1.25) + 16
        else:
            rows = count + count // 2 + 16
        rows = min(max(rows, 64), max(1, sampler_mod._BLOCK_ELEMENTS // two_m),
                   max_attempts - drawn)
        high = reference_keys(rng, rows, two_m, width) >> np.uint64(bits)
        perm = np.argsort(high, axis=1)
        drawn += rows
        ranked = np.take_along_axis(high, perm, axis=1)
        untied = ~(np.diff(ranked, axis=1) == 0).any(axis=1)
        o = owners[perm]
        loop_free = ~(o[:, 0::2] == o[:, 1::2]).any(axis=1)
        lo = np.minimum(o[:, 0::2], o[:, 1::2])
        hi = np.maximum(o[:, 0::2], o[:, 1::2])
        codes = lo.astype(np.int64) * (n + 1) + hi
        order = np.argsort(codes, axis=1)
        sorted_codes = np.take_along_axis(codes, order, axis=1)
        simple = ~(np.diff(sorted_codes, axis=1) == 0).any(axis=1)
        take = np.flatnonzero(untied & loop_free & simple)[: count - got]
        k = len(take)
        if k:
            order = order[take]
            out_lo[got:got + k] = np.take_along_axis(lo[take], order, axis=1)
            out_hi[got:got + k] = np.take_along_axis(hi[take], order, axis=1)
            got += k
        if got < count:
            attempts = drawn
        else:
            attempts += int(take[-1]) + 1
    return out_lo, out_hi, attempts


def assert_same_as_reference(seq, count, seed):
    mine, theirs = substream(seed, count), substream(seed, count)
    lo, hi, attempts = rejection_sample_batch(seq, count, mine)
    ref_lo, ref_hi, ref_attempts = argsort_rejection_reference(seq, count,
                                                               theirs)
    assert lo.dtype == hi.dtype == np.int32
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
    assert attempts == ref_attempts
    # the generator is left where the reference left it
    assert mine.random() == theirs.random()
    return lo, hi


@pytest.mark.parametrize("seq", [
    families.twos_tenth_of_m(60), families.twos_tenth_of_m(120),
    families.twos_tenth_of_m(240), families.with_leaves(40, 3, 60),
    families.regular(3, 100)], ids=lambda s: f"n{s.n}_m{s.m}")
@pytest.mark.parametrize("count", [1, 1024])
def test_rejection_kernel_matches_argsort_reference(seq, count):
    assert reference_key_width(seq) == 32
    assert_same_as_reference(seq, count, seed=41)


def test_rejection_kernel_int64_codes():
    # (n+1)^2 >= 2**31: edge codes need int64, and the keys 64 bits
    for degrees in ([1] * 46342, [1] * 46340 + [100, 100]):
        seq = DegreeSequence(degrees)
        assert (seq.n + 1) ** 2 >= 2**31
        assert reference_key_width(seq) == 64
        lo, hi = assert_same_as_reference(seq, 24, seed=5)
        codes = lo.astype(np.int64) * (seq.n + 1) + hi
        assert (np.diff(codes, axis=1) > 0).all()
    # the hub pair and the last leaf give codes past the int32 range
    assert (codes >= 2**31).any()


class CountingWords:
    """Stands in for a Generator, counting the raw words drawn."""

    def __init__(self, seed):
        self.words = substream(seed, 0).bit_generator
        self.bit_generator = self
        self.drawn = 0

    def random_raw(self, size):
        self.drawn += size
        return self.words.random_raw(size)


def test_key_width_rule_boundary():
    # n = 724 leaves: C(724, 2) * 2**10 = 268,007,424 <= 2**28, so 32-bit
    # keys, half a word per half-edge; n = 726: 269,491,200 > 2**28
    for n, width in ((724, 32), (726, 64)):
        seq = DegreeSequence([1] * n)
        assert reference_key_width(seq) == width
        words = CountingWords(3)
        rejection_sample_batch(seq, 1, words, max_attempts=1)
        assert words.drawn == n * width // 64
        assert_same_as_reference(seq, 8, seed=3)


def fill_words(first, size):
    """Raw words first .. first + size - 1 of TiedWords' filler: distinct,
    and so are all their 32-bit halves, above the lowest 12 bits."""
    k = np.arange(first, first + size, dtype=np.uint64)
    return ((2 * k + 1) << np.uint64(44)) | ((2 * k) << np.uint64(12))


class TiedWords:
    """Stands in for a Generator: random_raw(size) hands out the given raw
    words first, then filler words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.bit_generator = self
        self.drawn = 0

    def random_raw(self, size):
        out = fill_words(self.drawn, size)
        given = self.words[:size]
        out[:len(given)] = given
        self.words = self.words[size:]
        self.drawn += size
        return out


def words_of_halves(*rows):
    """Raw words whose 32-bit halves, low half first, are the given keys."""
    keys = [k for row in rows for k in row]
    return [lo | (hi << 32) for lo, hi in zip(keys[0::2], keys[1::2])]


def test_rejection_rejects_rows_with_tied_keys():
    top = 1 << 31
    # n = 4 takes 32-bit keys with a 3-bit owner field; every row here is
    # a simple graph (four leaves) unless its keys tie above that field
    rows = [
        [top, top, 5 << 20, 9 << 20],          # one word's halves tie
        [top | 1, top | 6, 5 << 20, 9 << 20],  # differ in the owner bits only
        [7 << 20, 5 << 20, 7 << 20, 9 << 20],  # two words' halves tie
        [7 << 20, 5 << 20, 8 << 20, 9 << 20],  # distinct: accepted
    ]
    seq = DegreeSequence([1, 1, 1, 1])
    assert reference_key_width(seq) == 32
    lo, hi, attempts = rejection_sample_batch(
        seq, 1, TiedWords(words_of_halves(*rows)))
    assert attempts == 4
    # sorted keys 5, 7, 8, 9 << 20 carry owners 2, 1, 3, 4
    assert lo.tolist() == [[1, 3]] and hi.tolist() == [[2, 4]]
    # tied rows count as attempts
    lo, hi, attempts = rejection_sample_batch(
        seq, 2, TiedWords(words_of_halves(*rows[:3])), max_attempts=5)
    assert attempts == 5
    with pytest.raises(AttemptsExhausted):
        rejection_sample_batch(seq, 1, TiedWords(words_of_halves(*rows[:3])),
                               max_attempts=3)


def test_rejection_rejects_tied_64_bit_words():
    # n = 726 takes whole 64-bit words with a 10-bit owner field
    seq = DegreeSequence([1] * 726)
    assert reference_key_width(seq) == 64
    tied = fill_words(0, 726)
    tied[5] = tied[3] ^ np.uint64(0x3FF)  # differ in the owner bits only
    halves = fill_words(726, 726)
    h = 0xABCDE << 12
    halves[0] = h | (h << 32)  # its 32-bit halves tie, the word does not
    assert len(np.unique(halves >> np.uint64(10))) == 726
    words = TiedWords(np.concatenate([tied, halves]))
    lo, hi, attempts = rejection_sample_batch(seq, 1, words)
    assert attempts == 2
    assert one_graph(seq, lo, hi).degree_vector() == [1] * 726


def test_rejection_refuses_32_bit_words():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ValueError, match="64-bit"):
        rejection_sample_batch(DegreeSequence([1, 1]), 1, rng)


def test_havel_hakimi_frozen_outputs():
    assert havel_hakimi_construct(DegreeSequence([2, 2, 2, 2])).edges() == \
        [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert havel_hakimi_construct(DegreeSequence([3, 3, 3, 3])).edges() == \
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert havel_hakimi_construct(DegreeSequence([1, 1, 2])).edges() == \
        [(1, 3), (2, 3)]


def test_havel_hakimi_realizes_and_rejects():
    for degs in ([1, 1, 1, 1], [2, 2, 2], [1, 2, 2, 3], [3] * 6, [2] * 7):
        g = havel_hakimi_construct(DegreeSequence(degs))
        assert g.degree_vector() == degs
    with pytest.raises(NotGraphical):
        havel_hakimi_construct(DegreeSequence([3, 1]))


def test_switching_on_c4():
    g = SimpleGraph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    j = switching(g, (1, 2), (3, 4))
    assert j.edges() == [(1, 3), (1, 4), (2, 3), (2, 4)]
    # involution: switching on the created pair restores the original
    back = switching(j, (1, 4), (3, 2))
    assert back == g


def test_switching_validity_errors():
    g = SimpleGraph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    with pytest.raises(InvalidSwitch):
        switching(g, (1, 4), (2, 3))  # (1,4) is not an edge
    with pytest.raises(InvalidSwitch):
        switching(g, (1, 2), (2, 4))  # u == y
    with pytest.raises(InvalidSwitch):
        switching(g, (2, 1), (3, 4))  # xv = 2-4 already present
    with pytest.raises(InvalidSwitch):
        switching(g, (1, 2), (1, 3))  # shared vertex 1: xv = 1-3 present
    with pytest.raises(InvalidSwitch):
        switching(g, (1, 2), (2, 1))  # same edge twice


def test_switching_preserves_degrees():
    g = havel_hakimi_construct(DegreeSequence([3, 3, 2, 2, 2]))
    edges = g.edges()
    applied = 0
    for i in range(len(edges)):
        for k in range(len(edges)):
            if i == k:
                continue
            try:
                j = switching(g, edges[i], edges[k])
            except InvalidSwitch:
                continue
            applied += 1
            assert j.degree_vector() == g.degree_vector()
            x, y = edges[i]
            u, v = edges[k]
            assert switching(j, (x, v), (u, y)) == g
    assert applied > 0


def test_default_chain_steps():
    assert default_chain_steps(0) == 0
    assert default_chain_steps(1) == 0
    assert default_chain_steps(2) == 2 * 8 * 1
    assert default_chain_steps(8) == 8 * 8 * 3


def test_switch_chain_uniform_on_perfect_matchings():
    # (1,1,1,1): 3 realizations, all reachable by single switches
    seq = DegreeSequence([1, 1, 1, 1])
    rng = substream(11, 0)
    counts = Counter()
    trials = 5000
    for _ in range(trials):
        lo, hi, _ = sample_batch(seq, "switch-chain", 1, rng, steps=40)
        counts[tuple(one_graph(seq, lo, hi).edges())] += 1
    assert len(counts) == 3
    tv = sum(abs(c / trials - 1 / 3) for c in counts.values()) / 2
    assert tv < 0.04


def test_switch_chain_rejects_nongraphical():
    with pytest.raises(NotGraphical):
        sample_batch(DegreeSequence([3, 1]), "switch-chain", 1,
                     substream(0, 0), steps=10)


def test_switch_chain_accepts_initial_graph():
    seq = DegreeSequence([2, 2, 2, 2])
    init = SimpleGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    codes = switch_chain_batch(seq, 0, 3, substream(0, 0), initial=init)
    assert (codes == [u * 5 + v for u, v in init.edges()]).all()
    with pytest.raises(ValueError):
        switch_chain_batch(seq, 0, 1, substream(0, 0),
                           initial=SimpleGraph(4, [(1, 2), (3, 4)]))
    # same edge count, degrees (3, 2, 2, 1)
    with pytest.raises(ValueError):
        switch_chain_batch(seq, 10, 2, substream(0, 0),
                           initial=SimpleGraph(4, [(1, 2), (1, 3), (1, 4),
                                                   (2, 3)]))


def test_switch_chain_rejects_negative_steps():
    seq = DegreeSequence([2, 2, 2, 2])
    with pytest.raises(DegconnError, match="steps"):
        switch_chain_batch(seq, -3, 4, substream(0, 0))
    # the one sampler dispatch rejects it whatever the sampler
    for sampler in ("switch-chain", "rejection"):
        with pytest.raises(DegconnError, match="steps"):
            sample_batch(seq, sampler, 1, substream(0, 0), steps=-1)
    # zero steps is the Havel-Hakimi start state in every row
    start = havel_hakimi_construct(seq)
    codes = switch_chain_batch(seq, 0, 3, substream(0, 0))
    assert (codes == [u * 5 + v for u, v in start.edges()]).all()


def proposal_block(chains):
    return max(1, sampler_mod._PROPOSAL_ELEMENTS // chains)


def assert_simple_realizations(seq, codes):
    """Every row of `codes` is a simple graph with the sequence's degrees."""
    lo = codes // (seq.n + 1)
    hi = codes % (seq.n + 1)
    assert ((1 <= lo) & (lo < hi) & (hi <= seq.n)).all()
    assert (np.diff(codes, axis=1) > 0).all()  # no parallel edges
    for r in range(len(codes)):
        deg = np.bincount(np.concatenate((lo[r], hi[r])), minlength=seq.n + 1)
        assert deg[1:].tolist() == list(seq.degrees), r


def test_switch_chain_batch_rows_realize_sequence():
    # one chain, and chain counts whose proposal block does not divide steps
    for degrees, steps, chains in (([2, 2, 3, 3, 2], 60, 400),
                                   ([4, 3, 3, 3, 2, 2, 2, 1], 700, 1),
                                   ([4, 3, 3, 3, 2, 2, 2, 1], 500, 300)):
        assert chains == 1 or steps % proposal_block(chains)
        seq = DegreeSequence(degrees)
        codes = switch_chain_batch(seq, steps, chains, substream(21, 0))
        assert codes.shape == (chains, seq.m)
        assert_simple_realizations(seq, codes)


def test_switch_chain_batch_agrees_with_uniform():
    seq = DegreeSequence([1, 1, 1, 1])
    # one-step blocks; then 41 steps over 4-step blocks, the last partial
    for chains, steps, streams in ((30000, 40, 1), (4000, 41, 5)):
        block = proposal_block(chains)
        assert steps > 2 * block
        codes = np.concatenate([switch_chain_batch(seq, steps, chains,
                                                   substream(13, s))
                                for s in range(streams)])
        keys, counts = np.unique(codes, axis=0, return_counts=True)
        assert len(keys) == 3
        tv = np.abs(counts / counts.sum() - 1 / 3).sum() / 2
        assert tv < 0.02


def _z(values, mean):
    """Standard score of the sample mean of `values` against `mean`."""
    x = np.asarray(values, dtype=float)
    return (x.mean() - float(mean)) / (x.std(ddof=1) / math.sqrt(x.size))


def test_switch_chain_default_matches_exact_references():
    # chains at the default step count against means known exactly, |z| < 4.
    # Relabelling vertices permutes the realizations of a regular sequence,
    # so every vertex pair is an edge with probability m / C(n, 2): the
    # overlap with the Havel-Hakimi start has mean m^2 / C(n, 2), and the
    # edges inside vertices 1..n//3 have mean C(n//3, 2) m / C(n, 2)
    seq = families.regular(6, 30)
    n, m, side = seq.n, seq.m, seq.n + 1
    pairs = math.comb(n, 2)
    codes = switch_chain_batch(seq, None, 8192, substream(1804, 0))
    start = [a * side + b for a, b in havel_hakimi_construct(seq).edges()]
    overlap = np.isin(codes, start).sum(axis=1)
    assert abs(_z(overlap, Fraction(m * m, pairs))) < 4
    third = n // 3
    inside = (codes % side <= third).sum(axis=1)  # lo < hi <= third
    assert abs(_z(inside, Fraction(math.comb(third, 2) * m, pairs))) < 4
    # the exact mean number of edge components (two adjacent leaves)
    seq = families.leaves_near_sqrt_m(60)
    realizations, _, totals = count_connectivity(seq.degrees)
    side = seq.n + 1
    codes = switch_chain_batch(seq, None, 8192, substream(1804, 1))
    leaf = np.array([False] + [d == 1 for d in seq.degrees])
    edges = (leaf[codes // side] & leaf[codes % side]).sum(axis=1)
    assert abs(_z(edges, Fraction(totals[(1, 1)], realizations))) < 4


def test_switch_chain_refuses_oversized_adjacency(monkeypatch):
    def unreachable(seq):
        raise AssertionError("the start graph was built")

    monkeypatch.setattr(sampler_mod, "havel_hakimi_construct", unreachable)
    seq = DegreeSequence([2] * 40000)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="1024 chains") as err:
            switch_chain_batch(seq, 10, 1024, substream(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(1024 * 40001 ** 2) in str(err.value)
    assert "n = 40000" in str(err.value)
    assert peak < 1 << 20


def test_conditional_oracle_frozen_values():
    s2 = DegreeSequence([1, 1])
    assert conditional_edge_probability(
        s2, Matching.empty(s2), 0, 1) == 1
    s4 = DegreeSequence([1, 1, 1, 1])
    empty4 = Matching.empty(s4)
    assert conditional_edge_probability(s4, empty4, 0, 1) == \
        Fraction(1, 3)
    total = sum(conditional_edge_probability(s4, empty4, 0, h)
                for h in range(1, 4))
    assert total == 1
    s = DegreeSequence([2, 2, 2, 2])
    assert conditional_edge_probability(
        s, Matching.empty(s), 0, 2) == Fraction(1, 6)


def test_conditional_oracle_with_partial_matching():
    # (2,2,2): condition on one v1-v2 edge; v1's other half-edge must go
    # to v3 (a second v1-v2 edge would be parallel)
    seq = DegreeSequence([2, 2, 2])
    partial = Matching.empty(seq).with_pair(0, 2)
    assert conditional_edge_probability(seq, partial, 1, 4) == \
        Fraction(1, 2)  # two half-edges of v3 are symmetric
    assert conditional_edge_probability(seq, partial, 1, 3) == 0


def test_conditional_oracle_errors():
    seq = DegreeSequence([2, 2])
    with pytest.raises(NotExtendable):
        conditional_edge_probability(seq, Matching.empty(seq), 0, 2)
    big = DegreeSequence([2] * 11)
    with pytest.raises(TooLarge):
        conditional_edge_probability(big, Matching.empty(big), 0, 2)
    s4 = DegreeSequence([1, 1, 1, 1])
    with pytest.raises(ValueError):
        conditional_edge_probability(s4, Matching.empty(s4), 0, 0)
    s22 = DegreeSequence([2, 2])
    with pytest.raises(ValueError):
        conditional_edge_probability(s22, Matching.empty(s22), 0, 1)
    # a partial matching on 2 or 6 half-edges does not fit the 4 of s4
    for partner in ([-1, -1], [-1] * 6):
        with pytest.raises(ValueError,
                           match="matching length does not fit"):
            conditional_edge_probability(s4, Matching(partner), 0, 1)
    # a float id is refused, not truncated; numpy integers are ids
    empty4 = Matching.empty(s4)
    with pytest.raises(TypeError):
        conditional_edge_probability(s4, empty4, 0, 2.7)
    with pytest.raises(TypeError):
        conditional_edge_probability(s4, empty4, 0.0, 1)
    assert conditional_edge_probability(
        s4, empty4, np.int64(0), np.int32(2)) == Fraction(1, 3)


def test_conditional_oracle_refuses_too_many_extensions():
    # 2m = 18 passes check_enumerable, but its 17!! = 34,459,425
    # extensions are refused before any is walked
    seq = DegreeSequence([2] * 9)
    with pytest.raises(TooLarge, match="18 free half-edges have 34459425"):
        conditional_edge_probability(seq, Matching.empty(seq), 0, 2)
    # two pairs leave 14 free half-edges: 13!! extensions, within the limit
    partial = Matching.empty(seq).with_pair(0, 2).with_pair(4, 6)
    assert 0 <= conditional_edge_probability(seq, partial, 1, 8) <= 1
    # check_enumerable still speaks first past 2m = 20
    big = DegreeSequence([2] * 11)
    with pytest.raises(TooLarge, match="enumeration limit"):
        conditional_edge_probability(big, Matching.empty(big), 0, 2)


def one_step_law(g):
    """Exact law of one switch-chain step from g: Counter of target edge
    lists over the 4 m (m - 1) equally likely proposals (i, j, o), where
    edge i is (x, y), reversed when bit 0 of o is set, and edge j is
    (u, v), reversed when bit 1 is set; an invalid switch holds."""
    edges = g.edges()
    law = Counter()
    for i, first in enumerate(edges):
        for j, second in enumerate(edges):
            if i == j:
                continue
            for o in range(4):
                xy = first[::-1] if o & 1 else first
                uv = second[::-1] if o & 2 else second
                try:
                    target = switching(g, xy, uv)
                except InvalidSwitch:
                    target = g
                law[tuple(target.edges())] += 1
    return law


@pytest.mark.parametrize("degrees", [[2] * 6, [3, 3, 2, 2, 1, 1, 1, 1]])
def test_switch_chain_one_step_law(degrees):
    seq = DegreeSequence(degrees)
    start = havel_hakimi_construct(seq)
    law = one_step_law(start)
    proposals = 4 * seq.m * (seq.m - 1)
    assert sum(law.values()) == proposals
    chains = 40000
    codes = switch_chain_batch(seq, 1, chains, substream(2026, seq.m))
    side = seq.n + 1
    observed = Counter(tuple(zip((row // side).tolist(), (row % side).tolist()))
                       for row in codes)
    assert set(observed) <= set(law)
    targets = sorted(law)
    obs = np.array([observed[t] for t in targets])
    exp = np.array([chains * law[t] / proposals for t in targets])
    assert exp.min() >= 5
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2.sf(stat, len(targets) - 1) > 0.001, stat
