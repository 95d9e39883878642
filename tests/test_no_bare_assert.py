"""Library invariants must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import blt


def test_no_bare_assert_in_library():
    modules = sorted(Path(blt.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert (use raise AssertionError) at {found}"
