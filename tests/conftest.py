from pathlib import Path

import pytest
from support import time_limit

from cubic2ec import Certifier, builtin, parse_graph6

DATA = Path(__file__).resolve().parent.parent / "data"
CORPUS_PATH = DATA / "cubic_3ec_n4_14.g6"

# Each test fails once it has run this long, so a kernel that loops forever
# fails its test instead of hanging the suite.  The slowest tests, the
# Fraction simplex references on two n = 12 least-support systems, take
# about 25 s each.
TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def per_test_time_limit():
    with time_limit(TEST_TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def k4():
    return builtin("k4")


@pytest.fixture(scope="session")
def k33():
    return builtin("k33")


@pytest.fixture(scope="session")
def prism():
    return builtin("prism")


@pytest.fixture(scope="session")
def petersen():
    return builtin("petersen")


@pytest.fixture(scope="session")
def corpus_lines():
    return [
        ln.strip()
        for ln in CORPUS_PATH.read_text().splitlines()
        if ln.strip()
    ]


@pytest.fixture(scope="session")
def corpus(corpus_lines):
    return [parse_graph6(ln) for ln in corpus_lines]


@pytest.fixture(scope="session")
def small_corpus(corpus):
    return [g for g in corpus if g.n <= 10]


@pytest.fixture(scope="session")
def certifier():
    return Certifier()
