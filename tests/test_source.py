import ast
from pathlib import Path

import kalmanres


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(Path(kalmanres.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
