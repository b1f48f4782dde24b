"""The test configuration itself: a failing property test must report its
example and let the rest of the run go on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_a_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 5\n"
    )
    (tmp_path / "test_b_runs.py").write_text("def test_after():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
