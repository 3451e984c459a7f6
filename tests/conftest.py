import pytest

from semicascade import systems

## one verdict line per acceptance criterion, printed in the terminal
## summary so the pass/fail ledger is visible even when tests pass
ACCEPTANCE_LINES = []


def record_verdict(criterion, ok, detail):
    line = "%s %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def golden_rotation():
    return systems.circle_rotation(systems.GOLDEN)
