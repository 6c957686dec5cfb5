"""Every ```python block of README.md runs as written against src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
APPROX = re.compile(r"#\s*≈\s*(\S+)")  # "print(x)  # ≈ -1.0": the value x prints


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    expected = [float(m) for m in APPROX.findall(source)]
    assert len(printed) >= len(expected)
    for line, want in zip(printed, expected):
        assert float(line) == pytest.approx(want, abs=1e-3)
