from pathlib import Path

from expwave.catalog import OUT_OF_SCOPE, coverage_audit, load_catalog

TESTS_DIR = Path(__file__).parent


def test_catalog_audit_passes():
    report = coverage_audit(tests_root=TESTS_DIR)
    assert report.entries > 40
    assert report.ok, report.gaps()


def test_audit_flags_missing_impl():
    bad = [{"id": "ghost", "summary": "",
            "implemented_by": "expwave.solutions:no_such_function",
            "tests": ["test_catalog.py::test_catalog_audit_passes"]}]
    report = coverage_audit(bad, tests_root=TESTS_DIR)
    assert not report.ok
    assert report.missing_impl


def test_audit_flags_missing_test():
    bad = [{"id": "untested", "summary": "",
            "implemented_by": "expwave.solutions:construct",
            "tests": ["test_catalog.py::test_never_written"]}]
    report = coverage_audit(bad, tests_root=TESTS_DIR)
    assert not report.ok
    assert report.missing_test
    bad = [{"id": "untested", "summary": "",
            "implemented_by": "expwave.solutions:construct",
            "tests": []}]
    assert not coverage_audit(bad, tests_root=TESTS_DIR).ok


def test_audit_flags_out_of_scope():
    entry = {"id": next(iter(OUT_OF_SCOPE)), "summary": "",
             "implemented_by": "expwave.solutions:construct",
             "tests": ["test_catalog.py::test_catalog_audit_passes"]}
    report = coverage_audit([entry], tests_root=TESTS_DIR)
    assert not report.ok
    assert report.forbidden


def test_audit_flags_malformed_and_duplicates():
    assert not coverage_audit([{"id": "x"}]).ok
    dup = {"id": "dup", "summary": "",
           "implemented_by": "expwave.solutions:construct",
           "tests": ["test_catalog.py::test_catalog_audit_passes"]}
    report = coverage_audit([dup, dict(dup)], tests_root=TESTS_DIR)
    assert not report.ok and report.malformed


def test_catalog_is_loadable_and_unique():
    entries = load_catalog()
    ids = [e["id"] for e in entries]
    assert len(ids) == len(set(ids))
    assert not (set(ids) & OUT_OF_SCOPE)
