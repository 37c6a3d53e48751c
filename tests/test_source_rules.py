"""Rules every module under src/tspgap keeps."""

import ast
import pathlib

import tspgap

_SRC = pathlib.Path(tspgap.__file__).parent


def test_no_assert_statements_in_the_package():
    # Checks must survive `python -O`, which strips assert statements.
    modules = sorted(_SRC.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(_SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
