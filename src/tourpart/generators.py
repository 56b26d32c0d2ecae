"""Tournament instance generators for tests and experiments.

Each generator computes the pair bits of its tournament (one bit per pair
i < j, row-major, set when i->j) and hands them to the one builder,
``core.tournament_from_pair_bits``.  Random generation uses numpy's PCG64
stream, which is stable across platforms, and draws the pair bits in one
call, so the compact file of ``random_tournament(n, seed)`` holds exactly
the drawn bits and reproduces byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .core import tournament_from_pair_bits


def random_tournament(n, seed):
    """Uniformly random orientation of each pair, deterministic per (n, seed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8)
    return tournament_from_pair_bits(n, bits.view(bool))


def transitive_tournament(n):
    """i -> j exactly when i < j; source 0, sink n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tournament_from_pair_bits(n, np.ones(n * (n - 1) // 2, dtype=bool))


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
    return tournament_from_pair_bits(q, np.concatenate([residue[1:q - i] for i in range(q - 1)]))
