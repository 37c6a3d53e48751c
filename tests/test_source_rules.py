"""Rules every module under src/tspgap keeps."""

import ast
import importlib
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


def _benchmark_hooks():
    # perfbench/tracer.py's SPANS and COUNTED tables, read without importing
    # the benchmark: (module, "function" or "Class.method", span name).
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTED")
    }
    assert sorted(tables) == ["COUNTED", "SPANS"]
    assert all(len(table) > 0 for table in tables.values())
    return [hook for table in tables.values() for hook in table]


def test_every_benchmark_hook_names_a_live_function():
    # The traced benchmark run patches these by name, so deleting or
    # renaming one breaks `perfbench/run.py --trace 1` and nothing else.
    missing = []
    for module, attr, _ in _benchmark_hooks():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}:{attr}")
    assert missing == []


def test_no_builtin_sum_in_the_package():
    # Python >= 3.12's builtin sum() of floats uses compensated summation,
    # so its last bits depend on the interpreter; float sums in src/ add in
    # a fixed order with np.cumsum instead.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert found == []
