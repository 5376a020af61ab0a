"""The suite's own configuration: a failing property reports its example.

``filterwarnings = ["error"]`` in pyproject.toml turns every warning into a
failure.  Hypothesis's failure reporter imports a module whose import warns,
so ``conftest`` imports it once with that warning ignored; without that, a
failing property ends the pytest run with an INTERNALERROR instead of printing
its falsifying example.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "tests"), str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # the repo's ini options (filterwarnings = error) and its conftest as a
    # plugin; run in tmp_path so hypothesis's files land there
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider", "-q",
         "test_failing_property.py"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
