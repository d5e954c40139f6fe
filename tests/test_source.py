import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import kalmanres

ROOT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(Path(kalmanres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k, code in enumerate(blocks):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, f"README python block {k}:\n{code}\n{proc.stderr}"
