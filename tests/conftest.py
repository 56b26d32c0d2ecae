import pytest

from tourpart.core import Tournament, digraph_from_edges
from tourpart.generators import paley_tournament, random_tournament, transitive_tournament


@pytest.fixture
def c3():
    return Tournament(digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)]).adj)


@pytest.fixture
def t4():
    return transitive_tournament(4)


@pytest.fixture
def paley7():
    return paley_tournament(7)


@pytest.fixture
def rand():
    return random_tournament
