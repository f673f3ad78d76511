import ast
from pathlib import Path

import quadgenus

SRC = Path(quadgenus.__file__).parent


def test_no_bare_assert_in_library():
    # invariants must survive python -O, which strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
