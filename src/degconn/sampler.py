"""Uniform simple-graph samplers for a fixed degree sequence.

Two routes, each implemented once and vectorized over a batch:
  * configuration-model rejection (rejection_sample_batch): draw uniform
    perfect matchings on half-edges until the multigraph is simple.  Each
    simple graph corresponds to exactly prod d(i)! matchings, so acceptance
    is exactly uniform.  A matching comes from _pairing_keys, the one
    pairing step (also behind census.multigraph_edge_component_stats): a
    row of keys cut from raw 64-bit generator words, each with its
    half-edge's owner packed into the low bits, sorted in place.  The keys
    are 32-bit halves of the words (low half first) when a row ties above
    the owner bits with probability at most 1/16, else whole words
    (_owner_key_type); rows that tie are rejected, so the shuffle is
    exactly uniform at either width.
  * edge-switching Markov chain (switch_chain_batch): lazy chain whose moves
    replace edges xy, uv by xv, uy; the proposal kernel is symmetric and the
    state space connected, so the stationary law is uniform.  The chains
    run in lockstep on flat arrays (every chain's edge endpoints in one
    array, every chain's dense adjacency in another), with the proposals
    for a block of steps drawn in three generator calls; the adjacency
    memory is capped by _ADJACENCY_BYTES (TooLarge above it).

Both draw from a single generator in a documented order and return plain
edge arrays.  census.sample_batch picks between them; a single graph is a
batch of one.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .degseq import DegreeSequence
from .errors import (AttemptsExhausted, DegconnError, InvalidSwitch,
                     NotGraphical, TooLarge)
from .graphs import Matching, SimpleGraph, owner_array

DEFAULT_MAX_ATTEMPTS = 10**6
# A pairing block holds at most this many half-edge keys (rows * 2m), so its
# memory stays bounded whatever m is.  Rows are consecutive slices of one key
# stream, so the block size never changes the rows or attempts returned, only
# how far the generator has advanced when the call returns.  2**17 was the
# fastest of 2**14..2**21 on the tightness table's rejection batches; 2**20
# spills the cache (sampling took 11% longer).
_BLOCK_ELEMENTS = 1 << 17
# A switch-chain proposal block holds at most this many chain-steps
# (steps * chains, at least one step), three int64 draws each.
_PROPOSAL_ELEMENTS = 1 << 14
# Largest dense switch-chain adjacency, chains * (n+1)^2 bool cells.
_ADJACENCY_BYTES = 1 << 30
# Row r of (x, y, u, v) paired with row _PARTNER[r]: the cells xy, yx, uv, vu
# of the two edges a switch removes.
_PARTNER = np.array([1, 0, 3, 2])


def random_matching(seq: DegreeSequence, rng: np.random.Generator) -> Matching:
    """Uniform perfect matching on the 2m half-edges.

    Draw order: one permutation of 0..2m-1; consecutive entries pair up.
    """
    perm = rng.permutation(2 * seq.m)
    partner = np.empty_like(perm)
    partner[perm[0::2]] = perm[1::2]
    partner[perm[1::2]] = perm[0::2]
    return Matching(partner.tolist())


def _pairing_keys(rng: np.random.Generator, rows: int, labels: np.ndarray,
                  bits: int) -> np.ndarray:
    """The pairing step: `rows` uniform pairings of len(labels) half-edges,
    a (rows, len(labels)) array of labels.dtype (uint32 or uint64) pairing
    entries 2k and 2k + 1.

    Draw order: one flat rng.bit_generator.random_raw call.  uint64 labels
    take rows * len(labels) raw words, one key each, the words rng.random
    turns into the floats (w >> 11) * 2**-53.  uint32 labels take half as
    many words and split each into two keys, its low 32 bits first (on any
    byte order).  Key k of the stream goes to row k // len(labels), so the
    rows are consecutive slices of one stream whatever `rows` is.  The low
    `bits` bits of each key are replaced by its half-edge's label (below
    2**bits) and each row is sorted in place.  Keys tied above the label
    bits (at most C(len(labels), 2) * 2**(bits - width) per row, width the
    key width) order by label.  ValueError for MT19937's 32-bit words.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("the pairing step needs 64-bit raw words; "
                         "MT19937 gives 32")
    key = labels.dtype.type
    raw = rng.bit_generator.random_raw(rows * len(labels) * labels.itemsize
                                       // 8)
    if key is np.uint32:
        # zero-copy on little-endian hosts; low half first on any byte order
        raw = raw.astype("<u8", copy=False).view("<u4")
        raw = raw.astype(np.uint32, copy=False)
    keys = raw.reshape(rows, len(labels))
    keys &= ~key((1 << bits) - 1)
    keys |= labels
    keys.sort(axis=1)
    return keys


def _block_rows(width: int) -> int:
    """Rows of `width` keys in one pairing block: _BLOCK_ELEMENTS // width,
    at least one."""
    return max(1, _BLOCK_ELEMENTS // width)


def _owner_key_type(n: int, m: int) -> type:
    """Key width of the rejection route: np.uint32 when a row of 2m 32-bit
    keys with n.bit_length() owner bits ties with probability at most 1/16,
    C(2m, 2) * 2**(bits - 32) <= 2**-4, else np.uint64."""
    return (np.uint32 if math.comb(2 * m, 2) << n.bit_length() <= 1 << 28
            else np.uint64)


def rejection_sample_batch(seq: DegreeSequence, count: int,
                           rng: np.random.Generator,
                           max_attempts: int = DEFAULT_MAX_ATTEMPTS
                           ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Vectorized rejection sampling.

    Returns (lo, hi, attempts): two (count, m) int32 arrays with lo < hi
    row-wise (edge order within a row is code-sorted), plus the number of
    matchings inspected through the one yielding the count-th acceptance.

    Draw order: repeated _pairing_keys blocks, one row of 2m keys per
    attempted matching, labelled by owner in b = n.bit_length() bits.  The
    keys are 32-bit halves of the raw words, low half first, when
    C(2m, 2) * 2**(b - 32) <= 2**-4 (_owner_key_type), else whole 64-bit
    words; no option sets the width.  Block sizes adapt to the observed
    acceptance rate and hold at most _BLOCK_ELEMENTS keys (at least one
    row); rows are consecutive slices of one key stream, so the block size
    changes no row or attempt count.  A row whose keys tie above the owner
    bits is rejected like a loop, so the pairing is exactly uniform at
    either width.

    Raises AttemptsExhausted once max_attempts matchings have been drawn
    without filling the request, and ValueError for a bit generator whose
    raw words are not 64 bits wide (MT19937).
    """
    two_m, m, n = 2 * seq.m, seq.m, seq.n
    bits = n.bit_length()
    key = _owner_key_type(n, m)
    owners = owner_array(seq).astype(key)
    low = key((1 << bits) - 1)
    side = n + 1
    code_type = np.int32 if side * side < 2**31 else np.int64
    out_lo = np.empty((count, m), dtype=np.int32)
    out_hi = np.empty((count, m), dtype=np.int32)
    got = 0
    attempts = 0
    drawn = 0
    while got < count:
        if drawn >= max_attempts:
            raise AttemptsExhausted(max_attempts)
        if drawn:
            acceptance = max(got / drawn, 1.0 / (4 * m + 4))
            rows = int((count - got) / acceptance * 1.25) + 16
        else:
            rows = count + count // 2 + 16
        rows = min(max(rows, 64), _block_rows(two_m), max_attempts - drawn)
        keys = _pairing_keys(rng, rows, owners, bits)
        drawn += rows
        # rows with a loop are rejected before their edge codes are built
        loop_free = np.flatnonzero(
            ~(((keys[:, 0::2] ^ keys[:, 1::2]) & low) == 0).any(axis=1))
        o = (keys[loop_free] & low).astype(code_type)
        u = o[:, 0::2]
        v = o[:, 1::2]
        codes = np.minimum(u, v) * side + np.maximum(u, v)
        codes.sort(axis=1)
        simple = np.flatnonzero(~(np.diff(codes, axis=1) == 0).any(axis=1))
        high = keys[loop_free[simple]] >> key(bits)
        untied = simple[~(high[:, 1:] == high[:, :-1]).any(axis=1)]
        keep = untied[: count - got]
        take = loop_free[keep]
        k = len(take)
        if k:
            out_lo[got:got + k], out_hi[got:got + k] = np.divmod(
                codes[keep], side)
            got += k
        if got < count:
            attempts = drawn
        else:
            attempts += int(take[-1]) + 1
    return out_lo, out_hi, attempts


def havel_hakimi_construct(seq: DegreeSequence) -> SimpleGraph:
    """Deterministic realization: repeatedly connect the vertex of largest
    residual degree to the next-largest ones.  Ties break toward smaller
    labels (sort key: residual descending, label ascending)."""
    if not seq.graphical:
        raise NotGraphical(f"{seq.degrees} is not graphical")
    res = [(d, v) for v, d in enumerate(seq.degrees, start=1)]
    edges: List[Tuple[int, int]] = []
    while True:
        res.sort(key=lambda t: (-t[0], t[1]))
        d, v = res[0]
        if d == 0:
            break
        if d > len(res) - 1:
            raise NotGraphical("residual degree exceeds remaining vertices")
        res[0] = (0, v)
        for i in range(1, d + 1):
            di, u = res[i]
            if di == 0:
                raise NotGraphical("ran out of positive residual degrees")
            res[i] = (di - 1, u)
            edges.append((min(v, u), max(v, u)))
    return SimpleGraph(seq.n, edges)


def switching(g: SimpleGraph, first: Tuple[int, int],
              second: Tuple[int, int]) -> SimpleGraph:
    """Apply the switch replacing xy, uv with xv, uy.

    first = (x, y) and second = (u, v) are oriented edges of g.  Validity:
    distinct edges, x != v, u != y, xv and uy not already edges (these
    conditions also rule out every shared-vertex degeneracy).
    """
    x, y = first
    u, v = second
    if not g.has_edge(x, y):
        raise InvalidSwitch(f"xy = ({x},{y}) is not an edge")
    if not g.has_edge(u, v):
        raise InvalidSwitch(f"uv = ({u},{v}) is not an edge")
    if {min(x, y), max(x, y)} == {min(u, v), max(u, v)}:
        raise InvalidSwitch("xy and uv are the same edge")
    if x == v:
        raise InvalidSwitch("x = v")
    if u == y:
        raise InvalidSwitch("u = y")
    if g.has_edge(x, v):
        raise InvalidSwitch(f"xv = ({x},{v}) already an edge")
    if g.has_edge(u, y):
        raise InvalidSwitch(f"uy = ({u},{y}) already an edge")
    edges = set(g.edges())
    edges.discard((min(x, y), max(x, y)))
    edges.discard((min(u, v), max(u, v)))
    edges.add((min(x, v), max(x, v)))
    edges.add((min(u, y), max(u, y)))
    return SimpleGraph(g.n, sorted(edges))


def default_chain_steps(m: int) -> int:
    """Heuristic step count 20 * m * ceil(ln m); no mixing theory claimed."""
    if m <= 1:
        return 0
    return 20 * m * math.ceil(math.log(m))


def chain_steps(steps: Optional[int], m: int) -> int:
    """Switch-chain step count: default_chain_steps(m) for None; a negative
    count raises DegconnError."""
    if steps is None:
        return default_chain_steps(m)
    if steps < 0:
        raise DegconnError(f"switch-chain steps must be >= 0, got {steps}")
    return steps


def switch_chain_batch(seq: DegreeSequence, steps: Optional[int], chains: int,
                       rng: np.random.Generator,
                       initial: Optional[SimpleGraph] = None) -> np.ndarray:
    """Run `chains` independent switch chains in lockstep (vectorized).

    Returns a (chains, m) int64 array of code-sorted edge codes
    lo * (n+1) + hi, one row per final state.  Every chain starts from
    `initial` (ValueError unless it realizes the sequence) or from the
    Havel-Hakimi seed, with edge e stored as the endpoint pair
    (lo, hi) of the seed's e-th edge in sorted order.

    Draw order: the steps are cut into blocks of
    k = max(1, _PROPOSAL_ELEMENTS // chains) steps, _PROPOSAL_ELEMENTS =
    2**14 (the last block holds the remainder); each block draws a
    (k, chains) array of edge indices i uniform in [0,m), then a (k, chains)
    array of second indices j uniform in [0,m-1) shifted past i
    (j += j >= i), then a (k, chains) array of orientations o uniform in
    [0,4); row t of each array is step t of the block.  (x, y) is edge i's
    stored pair, reversed when bit 0 of o is set; (u, v) is edge j's,
    reversed when bit 1 is set.  A proposal is valid when x != v, u != y
    and neither xv nor uy is an edge; then y's slot takes v and v's slot
    takes y, so edge i is stored as (x, v) and edge j as (u, y).  Invalid
    proposals hold.

    Memory: a dense bool adjacency of chains * (n+1)^2 bytes; above
    _ADJACENCY_BYTES the call raises TooLarge before allocating anything.
    steps=None means default_chain_steps(m); steps=0 returns the start state
    in every row; a negative count raises DegconnError.
    """
    n, m = seq.n, seq.m
    steps = chain_steps(steps, m)
    side = n + 1
    cells = side * side
    if chains * cells > _ADJACENCY_BYTES:
        raise TooLarge(f"switch chain adjacency for {chains} chains at n = "
                       f"{n} needs {chains * cells} bytes, over the "
                       f"{_ADJACENCY_BYTES}-byte limit")
    g = initial if initial is not None else havel_hakimi_construct(seq)
    if initial is not None and g.degree_vector() != list(seq.degrees):
        raise ValueError("initial graph does not realize the sequence")
    edges = g.edges()
    # ends[2 * (chain * m + e) + s]: endpoint s of edge e in that chain
    ends = np.tile(np.array(edges, dtype=np.int64).ravel(), chains)
    if m >= 2 and steps and chains:
        # free[chain * cells + a * side + b]: ab is neither an edge nor a
        # loop, so one lookup per new edge covers both validity conditions
        free = np.ones(chains * cells, dtype=bool)
        grid = free.reshape(chains, cells)
        grid[:, np.arange(side) * (side + 1)] = False
        for a, b in edges:
            grid[:, [a * side + b, b * side + a]] = False
        cell_base = np.arange(chains, dtype=np.int64) * cells
        edge_base = np.arange(chains, dtype=np.int64) * (2 * m)
        block = max(1, _PROPOSAL_ELEMENTS // chains)
        for start in range(0, steps, block):
            k = min(block, steps - start)
            i = rng.integers(m, size=(k, chains))
            j = rng.integers(m - 1, size=(k, chains))
            j += j >= i
            o = rng.integers(4, size=(k, chains))
            # slots[t]: the positions in `ends` of x, y, u, v at step t
            slots = np.empty((k, 4, chains), dtype=np.int64)
            slots[:, 0] = 2 * i + (o & 1) + edge_base
            slots[:, 1] = slots[:, 0] ^ 1
            slots[:, 2] = 2 * j + (o >> 1) + edge_base
            slots[:, 3] = slots[:, 2] ^ 1
            for slot in slots:
                p = ends[slot]
                row = p * side + cell_base
                ok = free[row[::2] + p[3::-2]]  # cells xv and uy
                w = np.flatnonzero(ok[0] & ok[1])
                if not len(w):
                    continue
                pw = p[:, w]
                rw = row[:, w]
                free[rw + pw[_PARTNER]] = True
                free[rw + pw[::-1]] = False  # xv, yu, uy, vx
                ends[slot[1::2, w]] = pw[3::-2]  # y's slot <- v, v's <- y
    pairs = ends.reshape(chains, m, 2)
    codes = pairs.min(axis=2) * side + pairs.max(axis=2)
    return np.sort(codes, axis=1)


__all__ = [
    "DEFAULT_MAX_ATTEMPTS", "random_matching", "rejection_sample_batch",
    "havel_hakimi_construct", "switching", "default_chain_steps",
    "chain_steps", "switch_chain_batch",
]
