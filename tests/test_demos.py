"""The demo scripts, the demo manifest and README's quick start run to
completion, with no numeric warning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# pyproject.toml's warning filters, which do not reach a subprocess
WARNINGS_AS_ERRORS = [
    "-W", "error::RuntimeWarning",
    "-W", "error:Casting complex values to real discards the imaginary part",
]


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs(script, tmp_path):
    proc = run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_demo_manifest_runs(tmp_path):
    proc = run(["-m", "flatpencil.cli", "run",
                str(ROOT / "demos" / "manifest.json")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) > 0


def test_three_demo_scripts():
    assert [p.name for p in DEMOS] == [
        "conformal_counterexample.py", "dressing_pipeline.py",
        "two_component_pencils.py"]


def test_readme_quick_start_prints_its_verdicts(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]
