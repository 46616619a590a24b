"""Each narrative demo runs against the package and prints something, and
README's library example runs as written."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["degree_sets_tour.py", "gcd_and_roots.py", "stabilizer_orbits.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "cd_multiset(p, ds)" in block
    exec(compile(block, "README.md", "exec"), {})
