import importlib

import pytest

import expwave.solutions as solutions


@pytest.mark.parametrize("module", ["expwave", "expwave.specfun"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    # a listed name missing from the module also breaks `from expwave import *`
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_construct_is_the_one_builder():
    # the per-family builders are private to solutions, behind construct
    for name in ("liouville", "tzitzeica", "dodd_bullough", "tdb_dbm",
                 "sine_gordon", "sinh_gordon"):
        assert not hasattr(solutions, name), name
