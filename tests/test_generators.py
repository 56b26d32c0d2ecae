import io
import tracemalloc

import numpy as np
import pytest

from oracles import residue_tournament, triu_random_tournament, triu_tournament
from tourpart import Tournament, vertex_connectivity
from tourpart.core import pair_bits, tournament_from_pair_bits
from tourpart.formats import read_tournament
from tourpart.generators import paley_tournament, random_tournament, transitive_tournament


def test_random_reproducible():
    a = random_tournament(40, 1)
    b = random_tournament(40, 1)
    assert (a.adj == b.adj).all()
    c = random_tournament(40, 2)
    assert (a.adj != c.adj).any()


def test_random_mean_out_degree():
    n = 200
    T = random_tournament(n, 0)
    mean = T.out_degrees().mean()
    # per-vertex out-degree is Binomial(n-1, 1/2)
    sigma = np.sqrt((n - 1) / 4) / np.sqrt(n)
    assert abs(mean - (n - 1) / 2) < 5 * sigma


def test_random_connectivity_concentration_report():
    vals = [vertex_connectivity(random_tournament(100, seed)) for seed in range(10)]
    print("kappa over 10 random n=100 tournaments:", vals)
    assert all(v > 0 for v in vals)  # report-only beyond basic sanity


def test_paley_3_is_directed_triangle():
    T = paley_tournament(3)
    assert T.has_edge(0, 1) and T.has_edge(1, 2) and T.has_edge(2, 0)


def test_paley_7_regular_and_three_connected():
    T = paley_tournament(7)
    assert (T.out_degrees() == 3).all()
    assert vertex_connectivity(T) == 3


def test_paley_shift_automorphism():
    q = 11
    T = paley_tournament(q)
    for u in range(q):
        for v in range(q):
            if u != v:
                assert T.has_edge(u, v) == T.has_edge((u + 1) % q, (v + 1) % q)


def test_paley_rejects_bad_modulus():
    for q in (5, 9, 12, 1):
        with pytest.raises(ValueError):
            paley_tournament(q)


def test_transitive_properties():
    T = transitive_tournament(8)
    assert vertex_connectivity(T) == 0
    assert T.has_edge(2, 5) and not T.has_edge(5, 2)
    assert T.out_degrees()[0] == 7 and T.in_degrees()[0] == 0


def _same_rows(a, b):
    return (a.n == b.n and a.packed.tobytes() == b.packed.tobytes()
            and a.rpacked.tobytes() == b.rpacked.tobytes())


def test_generators_emit_valid_tournaments():
    # the pair-bit builder skips validation, so every output must pass the
    # checked constructor and give the same packed rows
    compact = read_tournament(io.StringIO("4 6 101100\n"))
    for T in (random_tournament(33, 5), transitive_tournament(9), paley_tournament(19),
              random_tournament(130, 2), compact):
        assert _same_rows(Tournament(T.adj), T)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 300])
def test_random_matches_the_triu_construction(n):
    for seed in range(3):
        assert _same_rows(random_tournament(n, seed), triu_random_tournament(n, seed))


def test_transitive_matches_the_triu_construction():
    for n in range(1, 131):
        assert _same_rows(transitive_tournament(n), triu_tournament(n, np.ones(n * (n - 1) // 2, bool)))


def test_paley_matches_the_residue_definition():
    for q in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127, 131, 139):
        assert _same_rows(paley_tournament(q), residue_tournament(q))


def test_pair_bits_invert_the_builder():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 5, 64, 65, 200):
        bits = rng.random(n * (n - 1) // 2) < 0.5
        T = tournament_from_pair_bits(n, bits)
        assert (pair_bits(T) == bits).all()
        assert _same_rows(T, triu_tournament(n, bits))
    with pytest.raises(ValueError):
        tournament_from_pair_bits(4, np.ones(5, bool))


def traced_peak(call):
    """The peak of the memory traced while ``call()`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_generation_allocates_no_n_by_n_index_arrays():
    # int64 triu_indices took about 10.8 n^2 bytes and a bool matrix n^2;
    # built 64 rows at a time, a tournament peaks near its two packed
    # matrices, n^2 / 4 bytes (0.30 n^2 measured for both generators)
    n = 1500
    random_tournament(2, 0)  # the first draw imports numpy's seeding modules
    assert traced_peak(lambda: random_tournament(n, 5001)) < n * n // 2
    assert traced_peak(lambda: paley_tournament(n - 1)) < n * n // 2
