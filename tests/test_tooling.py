"""The repository's own rules: a failing property test must still report its
falsifying example under the warning filters, and the package imports nothing
beyond the standard library and NumPy, and importing it starts no executor;
only the CLI leaves NumPy one BLAS thread, unless the user chose."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


def test_the_package_imports_only_the_standard_library_and_numpy():
    modules = sorted((ROOT / "src" / "qexp").rglob("*.py"))
    assert len(modules) >= 16
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "qexp"), \
                    f"{path.relative_to(ROOT)}:{node.lineno} imports {name}"


IMPORT_PROBE = '''
import importlib, os, sys
importlib.import_module(sys.argv[1])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "concurrent"))
print(os.environ.get("OPENBLAS_NUM_THREADS"))
'''


@pytest.mark.parametrize("module, preset, want", [
    ("qexp.cli", None, "1"), ("qexp.cli", "3", "3"),
    ("qexp.classifier.training", None, "None"), ("qexp.experiment", None, "None")])
def test_importing_loads_no_executor_and_only_the_cli_sets_one_blas_thread(module, preset,
                                                                          want):
    """The helper thread's executor loads on first use, not at import. The CLI
    sets one BLAS thread before NumPy loads, unless the user set one; code
    that imports the package as a library keeps its own setting."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, module], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", want], proc.stdout
