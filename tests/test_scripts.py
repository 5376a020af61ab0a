"""The experiment scripts in scripts/ run to completion on a small run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdialogue.adversary import STRATEGIES
from qdialogue.protocol import PROTOCOLS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, header",
    [
        ("attack_comparison.py", "rounds=200  p_cm=0.5  seed=7"),
        ("leakage_study.py", "strategy=bell-substitution  rounds=200  seed=5"),
    ],
)
def test_script_runs(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--rounds", "200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == header
    assert lines[1].split()[0] == "protocol"


def test_count_code_lines_total_is_the_sum_of_the_modules():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    *modules, (label, total) = rows
    assert label == "total"
    assert {name for name, _ in modules} == {p.name for p in (ROOT / "src" / "qdialogue").glob("*.py")}
    assert all(int(count) > 0 for _, count in modules)
    assert int(total) == sum(int(count) for _, count in modules)


def test_count_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # counted: code before the comment\n"
        "    '''Function docstring.'''\n"
        "    text = '''two\n"
        "    lines'''\n"
        "    return (x,\n"
        "            text)\n"
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["mod.py", "5", "total", "5"]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_costs_gives_positive_microseconds_per_step():
    step_costs = load_script("step_costs")
    rows = step_costs.step_costs(number=2)
    assert [name for name, _ in rows] == [
        "construct", "shaped transcript", "parse hit", "to_line hit", "summarize", "summarize 10k",
        "write 10k", "replay 10k", "run 10k", "run text 10k", "cli parse",
        "round original none", "round original bell-substitution",
        "round modified none", "round modified bell-substitution",
    ]
    assert all(isinstance(us, float) and us > 0 for _, us in rows)


def test_digest_sweep_covers_every_group_and_repeats_its_digests():
    digest_sweep = load_script("digest_sweep")
    cases = dict(digest_sweep.cases())
    assert len(cases) == len(digest_sweep.cases())  # no name twice
    for protocol in PROTOCOLS:
        for strategy in STRATEGIES:
            for rounds in (1, 1023, 1024, 1025, 20000):
                for p_cm in ("0", "0.2", "0.8", "1"):
                    for form in ("output", "records", "text"):
                        assert f"run {protocol} {strategy} {rounds} {p_cm} {form}" in cases
            for size in ("short", "long"):
                assert f"text {protocol} {strategy} {size}" in cases
    for strategy in STRATEGIES:
        assert any(name.startswith(f"suppressed {strategy} ") for name in cases)
        for size in ("short", "long"):
            assert f"dialogue {strategy} {size}" in cases
            assert f"dialogue {strategy} {size} suppressed" in cases
    assert min(len(text.encode()) for text in digest_sweep.LONG_TEXTS) >= 3000
    for name in ("run modified bell-substitution 1025 0.2 output", "text original none short"):
        case = (name, cases[name])
        assert digest_sweep.digest(case) == digest_sweep.digest(case)
