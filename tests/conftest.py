"""Shared fixtures: the validation corpus, a single shared sandwich run,
and the acceptance-criteria summary printed after the test session."""

import pytest
from hypothesis import HealthCheck, settings

from slq import GraphData, evaluate_catalog, validation

settings.register_profile(
    "slq",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("slq")


@pytest.fixture(scope="session")
def corpus():
    """Named families (n <= 12) plus seeded random connected graphs."""
    return validation.standard_corpus()


@pytest.fixture(scope="session")
def corpus_map(corpus):
    return dict(corpus)


@pytest.fixture(scope="session")
def sandwich_raw(corpus):
    """One full catalog-vs-spread pass with no exclusions: every violation
    lands in .failures so tests can classify it their own way."""
    return validation.check_sandwich(corpus, exclude=None)


def bound(name, g, options=None):
    """Value of one catalog entry on g, evaluated through the catalog; the
    entry must apply to g."""
    (outcome,) = evaluate_catalog(GraphData(g, options), (name,))
    assert outcome.evaluated, f"{name}: {outcome.reason}"
    return outcome.value


# ---------------------------------------------------------------------------
# acceptance-criteria reporting

_ACCEPTANCE = {}


def record_criterion(number: int, title: str, passed: bool, detail: str = ""):
    """Store one acceptance-criterion outcome for the end-of-run summary."""
    _ACCEPTANCE[number] = (title, passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        title, passed, detail = _ACCEPTANCE[number]
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} [{status}] {title}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
