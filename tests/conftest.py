"""Process-wide test setup.

BLAS thread pinning must happen before numpy's first import anywhere in the
test process: the latency assertions and the bitwise-reproducibility tests
both assume single-threaded kernels. Importing qna pins them.
"""

import qna  # noqa: F401  (first: it pins the BLAS pools before numpy loads)
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_log():
    """Collector for the acceptance suite's one-line verdicts. Tests log the
    verdict before asserting so a failing criterion still prints FAIL."""

    def log(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
