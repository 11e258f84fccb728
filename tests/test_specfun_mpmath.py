"""gauss_2f1 and carlson_rf against mpmath, each to the accuracy its
docstring states."""

from itertools import combinations_with_replacement

import mpmath as mp
import pytest

from expwave.specfun import carlson_rf, gauss_2f1

DPS = 40

#: the two parameter sets the c1 = 0 implicit solutions use
CATALOGUED_2F1 = [(0.5, 1.0 / 3.0, 4.0 / 3.0), (0.5, 0.25, 1.25)]

RF_VALUES = (0.0, 1e-300, 1e-30, 1e-8, 0.5, 1.0, 1e8, 1e30, 1e300)


def _relative_error(value, reference):
    return float(abs((mp.mpf(value) - reference) / reference))


@pytest.mark.parametrize("a, b, c", CATALOGUED_2F1)
@pytest.mark.parametrize("x", [-1e12, -1e8, -2e6, -1e5, -1e3, -2.0, -1.0,
                               -0.5, 0.5, 0.9, 0.99])
def test_gauss_2f1_against_mpmath(a, b, c, x):
    # x <= -1e5 is the 1/x connection formula's reach; the series needed
    # more than 400,000 terms there
    with mp.workdps(DPS):
        reference = mp.hyp2f1(a, b, c, x)
        assert _relative_error(gauss_2f1(a, b, c, x), reference) <= 2e-14


@pytest.mark.parametrize("x, y, z", [
    t for t in combinations_with_replacement(RF_VALUES, 3)
    if t.count(0.0) <= 1])
def test_carlson_rf_against_mpmath(x, y, z):
    with mp.workdps(DPS):
        reference = mp.elliprf(x, y, z)
        assert _relative_error(carlson_rf(x, y, z), reference) <= 1e-15
