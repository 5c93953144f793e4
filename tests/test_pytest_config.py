"""The repository's pytest settings report a failing hypothesis test as a
failure and go on with the run."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_FILE = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_fails_without_an_internal_error(tmp_path):
    # reporting a failing example imports modules whose deprecation warnings
    # filterwarnings = ["error"] would raise inside a pytest hook
    (tmp_path / "test_fail.py").write_text(FAILING_FILE)
    env = {key: value for key, value in os.environ.items() if key != "PYTEST_ADDOPTS"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fail.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert result.returncode == 1
