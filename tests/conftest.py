"""Shared pytest wiring: Hypothesis settings and acceptance-gate reporting.

Hypothesis draws the same examples on every run and keeps no example
database, so a commit's verdict does not depend on the run.  When a
property fails, Hypothesis imports its patch writer, whose libcst
import raises a DeprecationWarning; pyproject.toml turns that warning
into an error, which would end the run with INTERNALERROR in place of
the falsifying example.  The patch writer is therefore imported here once,
with that warning ignored.  Each
acceptance test records its verdict through the ``gate`` fixture; the
terminal summary then prints one PASS/FAIL line per criterion so a plain
``pytest -v`` run shows the whole gate at a glance.
"""

import warnings

import pytest
from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst missing: Hypothesis then writes no patch
        pass

settings.register_profile("default", derandomize=True, database=None)
settings.load_profile("default")

ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture
def gate():
    def record(num: int, desc: str, ok: bool, detail: str = ""):
        ACCEPTANCE[num] = (desc, bool(ok), str(detail))
        assert ok, f"acceptance criterion {num} ({desc}): {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        desc, ok, detail = ACCEPTANCE[num]
        status = "PASS" if ok else "FAIL"
        line = f"criterion {num:2d}  {status}  {desc}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
