"""Seed-derivation scheme shared by every experiment command.

All randomness flows from numpy PCG64 generators derived from a single 64-bit
experiment seed.  Trials are partitioned into fixed batches of BATCH_SIZE
(constant, independent of thread count); batch b draws from

    Generator(PCG64(SeedSequence(entropy=(seed, b))))

Workers are assigned whole batches and per-batch tallies merge in batch
order, so statistics are byte-identical for any parallelism degree.  A port
reproduces the statistics by reproducing this derivation (numpy's
SeedSequence hash is specified in its docs) and the batch draw order
documented in each batch routine.  Rejection sampling
(sampler.rejection_sample_batch) cuts each attempted matching's 2m keys
from raw 64-bit words: two 32-bit keys per word, low half first, when
C(2m, 2) * 2**(n.bit_length() - 32) <= 2**-4, else one key per word; rows
are consecutive slices of one key stream.  The switch chain
(sampler.switch_chain_batch) draws its proposals a block of steps at a
time, max(1, 2**14 // chains) steps per block: every first-edge index of
the block, then every second-edge index, then every orientation.  A batch's
rows therefore depend on its chain count (the batch size) as well as on its
stream and step count.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

BATCH_SIZE = 1024


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for batch/stream `index` of experiment `seed`."""
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), int(index)))
    return np.random.Generator(np.random.PCG64(ss))


def batch_ranges(trials: int, batch_size: int = BATCH_SIZE) -> Iterator[Tuple[int, int, int]]:
    """(batch_index, start_trial, stop_trial) covering range(trials)."""
    b = 0
    start = 0
    while start < trials:
        stop = min(start + batch_size, trials)
        yield b, start, stop
        b += 1
        start = stop
