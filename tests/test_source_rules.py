"""Rules every module under src/tspgap keeps."""

import ast
import pathlib

import tspgap

_SRC = pathlib.Path(tspgap.__file__).parent


def _modules():
    modules = sorted(_SRC.rglob("*.py"))
    assert len(modules) > 10
    return [(str(path.relative_to(_SRC)), ast.parse(path.read_text(), filename=str(path))) for path in modules]


def test_no_assert_statements_in_the_package():
    # Checks must survive `python -O`, which strips assert statements.
    found = [
        f"{name}:{node.lineno}" for name, tree in _modules() for node in ast.walk(tree) if isinstance(node, ast.Assert)
    ]
    assert found == []


def _linalg_uses(tree):
    # `np.linalg`/`numpy.linalg` attributes and any import that names linalg.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name for name in names):
                yield node


def test_lapack_is_called_only_inside_lp_solve():
    # Every dense solve goes through `lp._solve`, which turns a singular
    # basis into LpError instead of numpy's LinAlgError.
    allowed, found = 0, []
    for name, tree in _modules():
        inside = set()
        if name == "lp.py":
            solve = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_solve")
            inside = {id(node) for node in ast.walk(solve)}
        for node in _linalg_uses(tree):
            if id(node) in inside:
                allowed += 1
            else:
                found.append(f"{name}:{node.lineno}")
    assert allowed > 0
    assert found == []
