"""The repository's pytest configuration: warnings are errors, yet a failing
hypothesis test still gets reported and the session runs to the end."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

THREE_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_passes():
    assert True


def test_other_deprecation_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # reporting a falsifying example imports libcst, whose import warns about
    # mypy_extensions.TypedDict; every other DeprecationWarning stays an error
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout, run.stdout[-2000:]
