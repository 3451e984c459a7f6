import numpy as np
import pytest
import scipy.sparse as sp

from semicascade import systems, ulam

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


def transfer_of_dense(dense, spec=None):
    """A TransferMatrix holding the CSR arrays of a dense (n, n) chain.

    The partition has n cells of spec (the doubling map by default) with one
    sample each.
    """
    spec = spec or systems.doubling_map()
    mat = sp.csr_matrix(np.asarray(dense, dtype=np.float64))
    part = ulam.build_partition(spec, mat.shape[0], 1)
    return ulam.TransferMatrix(mat.indptr, mat.indices, mat.data, part, spec)


@pytest.fixture(scope="session")
def golden_rotation():
    return systems.circle_rotation(systems.GOLDEN)
