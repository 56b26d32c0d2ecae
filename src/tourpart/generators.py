"""Tournament instance generators for tests and experiments.

Each generator computes the pair bits of its tournament (one bit per pair
i < j, row-major, set when i->j) one block of 64 rows at a time for the one
builder, ``core._tournament_from_blocks``.  Random generation uses numpy's
PCG64 stream, which is stable across platforms.  A full block holds
64(n-1-lo) - 2016 pairs, a multiple of the stream's 4-byte unit, so drawing
each block's bits in one call (the last one rounded up) reads the bits of
one whole draw, and the compact file of ``random_tournament(n, seed)``
holds exactly the drawn bits and reproduces byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _pair_count, _tournament_from_blocks


def random_tournament(n, seed):
    """Uniformly random orientation of each pair, deterministic per (n, seed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)

    def drawn(lo, hi):
        count = _pair_count(n, lo, hi)
        return rng.integers(0, 2, size=count + -count % 4, dtype=np.uint8)[:count].view(bool)

    return _tournament_from_blocks(n, drawn)


def transitive_tournament(n):
    """i -> j exactly when i < j; source 0, sink n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _tournament_from_blocks(n, lambda lo, hi: np.ones(_pair_count(n, lo, hi), dtype=bool))


def _is_prime(q):
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def paley_tournament(q):
    """Quadratic-residue tournament on Z_q: i -> j iff j - i is a nonzero
    square mod q.  Needs q prime with q = 3 (mod 4), which makes exactly one
    of +-d a residue for every d != 0."""
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError("q must be a prime congruent to 3 mod 4")
    residue = np.zeros(q, dtype=bool)
    residue[np.arange(1, q) ** 2 % q] = True
    # the pair (i, j), i < j, has difference j - i in 1..q-1-i
    return _tournament_from_blocks(
        q, lambda lo, hi: np.concatenate([residue[1:q - i] for i in range(lo, hi)]))
