"""Shared fixtures: golden data files and cached small-algebra lists."""

import pathlib

import pytest

from mfdlogic import FinitePomonoid, enumerate_pomonoids, load_algebra, load_relation, parse_theory

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def housing_relation():
    return load_relation(str(DATA / "housing.json"))


@pytest.fixture(scope="session")
def housing_extra_relation():
    return load_relation(str(DATA / "housing_extra.json"))


@pytest.fixture(scope="session")
def needs_nonlinear():
    return parse_theory((DATA / "needs_nonlinear.theory").read_text())


@pytest.fixture(scope="session")
def no_additivity():
    return parse_theory((DATA / "no_additivity.theory").read_text())


@pytest.fixture(scope="session")
def no_accumulation():
    return parse_theory((DATA / "no_accumulation.theory").read_text())


@pytest.fixture(scope="session")
def growth_chain():
    """Theory text: 40 rules ``g_k -> g_k g_k+1`` plus ten growth rules onto
    side attributes s0..s5.  Every rule keeps firing, so breadth-first search
    for ``g0 -> g40`` drowns in branching.  Listed from the end of the chain,
    so the saturation advances it one link per pass."""
    rules = []
    for k in reversed(range(40)):
        rules.append(f"g{k} -> g{k} g{k + 1}")
        if k % 4 == 0:
            rules.append(f"g{k} -> g{k} s{k // 4 % 6}")
    return "\n".join(rules) + "\n"


@pytest.fixture(scope="session")
def nonlinear_algebra():
    return load_algebra(str(DATA / "nonlinear_pomonoid.json"))


@pytest.fixture(scope="session")
def wide_flat_algebra():
    """Top, 30 idempotent atoms whose pairwise products are the bottom, and
    the bottom: a valid pomonoid whose order has 2^30 + 2 downsets."""
    n = 32
    top, bottom = 0, n - 1
    leq = [[a == b or b == top or a == bottom for b in range(n)] for a in range(n)]
    times = [[b if a == top else a if b == top or a == b else bottom for b in range(n)]
             for a in range(n)]
    names = ["top", *(f"a{i}" for i in range(1, n - 1)), "bottom"]
    return FinitePomonoid(names, top, leq, times)


@pytest.fixture(scope="session")
def pomonoids_upto_3():
    return tuple(enumerate_pomonoids(3))


@pytest.fixture(scope="session")
def pomonoids_upto_4():
    return tuple(enumerate_pomonoids(4))
