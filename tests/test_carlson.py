import math
from itertools import permutations

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from expwave.errors import DomainError
from expwave.specfun import carlson_rf


def rf_quadrature(x, y, z):
    """Independent oracle: tanh-sinh quadrature at 30 digits of the
    defining integral (1/2) * int_0^inf dt / sqrt((t+x)(t+y)(t+z)), split
    at t = 1."""
    with mp.workdps(30):
        return float(mp.quad(
            lambda t: 0.5 / mp.sqrt((t + x) * (t + y) * (t + z)),
            [0, 1, mp.inf]))


def test_rf_degenerate_values():
    assert carlson_rf(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert carlson_rf(4.0, 4.0, 4.0) == pytest.approx(0.5, abs=1e-15)
    # one zero argument: pi / (2 sqrt(y))
    assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-14)
    assert carlson_rf(0.0, 4.0, 4.0) == pytest.approx(math.pi / 4.0, abs=1e-14)


def test_rf_defining_integral():
    # frozen value computed with the quadrature oracle below
    assert carlson_rf(0.0, 1.0, 2.0) == pytest.approx(1.3110287771460599, rel=1e-13)
    for args in [(0.0, 1.0, 2.0), (0.5, 1.0, 3.0), (0.01, 2.0, 7.5),
                 (1.0, 1.0, 5.0), (3.0, 4.0, 5.0)]:
        expected = rf_quadrature(*args)
        assert carlson_rf(*args) == pytest.approx(expected, rel=5e-12)


@given(st.tuples(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3)))
def test_rf_symmetry(args):
    values = {carlson_rf(*p) for p in permutations(args)}
    # arguments are sorted internally, so permutations are bit-identical
    assert len(values) == 1


def test_rf_domain_errors():
    with pytest.raises(DomainError):
        carlson_rf(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rf(0.0, 0.0, 0.0)
