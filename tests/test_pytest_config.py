"""The repository's pytest configuration reports a failing test and runs the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
