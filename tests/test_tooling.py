"""The test configuration, the benchmark's checks and README's example: a
failing property test must report its example and let the rest of the run go
on, one round of each gated benchmark workload must pass the checks the
benchmark applies to its outputs, every function its traced run wraps must
exist, and README's library example must print what its comments say."""

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


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


def _bench_module(name):
    """bench/<name>.py, imported from its file: bench is not a package."""
    path = PYPROJECT.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_exist():
    """Every function the traced benchmark run wraps is still where it looks."""
    targets = _bench_module("spans").TARGETS
    assert targets
    for t in targets:
        assert hasattr(t.module, t.attr), f"{t.module.__name__}.{t.attr}"


@pytest.mark.parametrize("workload", ["trace_sweep", "certify_catalog"])
def test_bench_round_passes_its_checks(workload):
    """One round of a gated benchmark workload, built with seed 1: every
    operation's output passes the benchmark's own check."""
    ops = _bench_module("workloads").build(workload, 1)
    assert ops
    for op in ops:
        assert op.check(op.run()) is None, op.label


def test_readme_library_example_prints_its_comments():
    """The Python block under README's "## Library" runs, and prints, line by
    line, the "# ..." comments of its print calls."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.rpartition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
