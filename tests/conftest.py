import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from cat0 import euclidean, hyperbolic, make_point, rtree

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True, scope="session")
def cli_imports_these_sources():
    """`python -m cat0` subprocesses import the sources under test, as pytest does."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(params=["euclidean", "rtree", "hyperbolic"])
def any_space(request):
    if request.param == "euclidean":
        return euclidean(2)
    if request.param == "rtree":
        return rtree()
    return hyperbolic(2)


# ---------------------------------------------------------------------------
# hypothesis strategies on exact (int / Fraction) payloads


def euclid_points(dim: int = 2, bound: int = 4):
    coord = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(*([coord] * dim)).map(lambda c: make_point(euclidean(dim), c))


def rtree_points(branches: int = 4, denom: int = 12):
    return st.tuples(
        st.integers(min_value=1, max_value=branches),
        st.integers(min_value=0, max_value=denom),
    ).map(lambda bt: make_point(rtree(), (bt[0], Fraction(bt[1], denom))))


def small_fractions(num: int = 6, den: int = 3):
    return st.tuples(
        st.integers(min_value=-num, max_value=num),
        st.integers(min_value=1, max_value=den),
    ).map(lambda nd: Fraction(nd[0], nd[1]))
