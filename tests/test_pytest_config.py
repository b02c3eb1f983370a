"""The suite's pytest configuration: a falsified hypothesis property is one
failed test, and the tests after it still run."""

import os
import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_passes():
    pass
'''


def test_falsified_property_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
