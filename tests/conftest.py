import pytest

from epicross import cross

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for one PASS/FAIL line per acceptance check; the lines are
    echoed in the terminal summary so they survive output capture."""
    return _acceptance_lines.append


@pytest.fixture
def no_local_max(monkeypatch):
    """Turn off cross_optimize's one-flip stop, so runs sweep on as they
    would without it."""
    monkeypatch.setattr(cross, "_one_flip_maximum", lambda memo, g, budget: False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
