"""Every script under ``examples/`` runs to completion, and so does each
whole program the manual shows.

Each runs in its own interpreter with ``src/`` on the path, as a reader
would run it, so a change to an API an example uses fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

# Fenced Python blocks of docs/MANUAL.md that are whole programs: a case
# name and the heading of the section whose first block it is.
MANUAL_PROGRAMS = {
    "manual_sim_workload": "## 12. Writing a workload against `repro.sim`",
}


def manual_program(heading: str) -> str:
    """The first fenced Python block after ``heading`` in the manual."""
    text = (REPO_ROOT / "docs" / "MANUAL.md").read_text()
    section = text[text.index(heading) :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize(
    "script",
    EXAMPLES + sorted(MANUAL_PROGRAMS),
    ids=lambda script: script.stem if isinstance(script, Path) else script,
)
def test_example_runs(script, tmp_path):
    if not isinstance(script, Path):
        path = tmp_path / f"{script}.py"
        path.write_text(manual_program(MANUAL_PROGRAMS[script]))
        script = path
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout, f"{script.name} printed nothing"
