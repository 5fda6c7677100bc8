import pathlib
import shlex
import subprocess
import sys

import pytest

_REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((_REPO / "demos").glob("*.py"))


def test_readme_lists_every_demo():
    lines = (_REPO / "README.md").read_text(encoding="utf-8").splitlines()
    block = lines[lines.index("## Demos"):]
    block = block[block.index("```sh") + 1:]
    listed = [shlex.split(line, comments=True)[1] for line in block[: block.index("```")]]
    assert listed == [f"demos/{p.name}" for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
