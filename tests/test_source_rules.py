"""Rules every module under src/tspgap keeps."""

import ast
import importlib
import pathlib
import re

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


def _inside_functions(name, tree, module, *functions):
    # The ids of every node within the named module-level functions of module.
    if name != module:
        return set()
    return {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in functions
        for sub in ast.walk(node)
    }


def test_lapack_is_called_only_inside_lp_solve():
    # Every dense solve goes through `lp._solve`, which turns a singular
    # basis into LpError instead of numpy's LinAlgError.
    allowed, found = 0, []
    for name, tree in _modules():
        inside = _inside_functions(name, tree, "lp.py", "_solve")
        for node in _linalg_uses(tree):
            if id(node) in inside:
                allowed += 1
            else:
                found.append(f"{name}:{node.lineno}")
    assert allowed > 0
    assert found == []


def test_the_simplex_is_optimised_only_inside_the_lazy_row_loop():
    # Every LP runs through `lp._reoptimise`, the one optimise -> separate
    # -> add_row loop, the cached degree start's phase 1 included.
    allowed, found = 0, []
    for name, tree in _modules():
        inside = _inside_functions(name, tree, "lp.py", "_reoptimise")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "optimise":
                if id(node) in inside:
                    allowed += 1
                else:
                    found.append(f"{name}:{node.lineno}")
    assert allowed == 1
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
    # a fixed order through core.ordered_sum instead.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert found == []


def test_cumsum_appears_only_in_ordered_sum():
    # core.ordered_sum is the one place that states the in-order rule; every
    # other order-sensitive sum calls it rather than np.cumsum.
    allowed, found = 0, []
    for name, tree in _modules():
        inside = _inside_functions(name, tree, "core.py", "ordered_sum")
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and "cumsum" in (
                getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)
            ):
                if id(node) in inside:
                    allowed += 1
                else:
                    found.append(f"{name}:{node.lineno}")
    assert allowed == 1 and found == []


def test_no_timing_figures_in_the_package():
    # Timings belong to a machine and a moment; the README's module table
    # holds them with the hardware they were measured on, so the source
    # keeps only the reasons.
    figure = re.compile(r"\d\s*(?:[µμ]s|ms)\b")
    found = [
        f"{path.relative_to(_SRC)}:{k}"
        for path in sorted(_SRC.rglob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if figure.search(line)
    ]
    assert found == []


def test_the_label_alphabet_lives_only_in_the_family_module():
    # families/ijk.py owns the vertex labels X0.., Y0.., Z0..; other modules
    # read them through labeled_vertices and ijk_of_labels.
    owner = str(pathlib.Path("families", "ijk.py"))
    label = re.compile(r"[XYZ]\d*")
    hits = [
        (name, node.lineno)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and (node.value == "XYZ" or label.fullmatch(node.value))
    ]
    assert any(name == owner for name, _ in hits)
    assert [f"{name}:{line}" for name, line in hits if name != owner] == []


def test_only_the_family_package_builds_every_pseudo_tour():
    # The certificate needs the whole family; every other caller names the
    # one member it wants through pseudo_tour(p, tag, index).
    owner = pathlib.Path("families")
    calls = [
        (name, node.lineno)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "pseudo_tours" or getattr(node.func, "attr", None) == "pseudo_tours")
    ]
    assert any(pathlib.Path(name).parent == owner for name, _ in calls)
    assert [f"{name}:{line}" for name, line in calls if pathlib.Path(name).parent != owner] == []


def test_local_search_evaluates_states_only_through_ratio_state():
    # Every draw and line-search step is settled by `_ratio_state(inst,
    # floor)`; the search itself neither solves nor screens a state.
    tree = dict(_modules())["localsearch.py"]
    (search,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "local_search"]
    names = [
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(search)
        if isinstance(node, ast.Call)
    ]
    assert names.count("_ratio_state") == 2
    banned = {"solve_subtour_lp", "held_karp", "_vertex_table", "checked_ratio"}
    assert [name for name in names if name in banned] == []


def test_no_roll_or_add_at_in_the_local_search():
    # The search's per-state path takes tour successors from the cached
    # `exact.tour_successors` or from index arrays, and sums gradient terms
    # with `np.bincount`: `np.roll` and `np.add.at` cost more than the
    # arithmetic they wrap at these sizes.
    tree = dict(_modules())["localsearch.py"]
    found = [
        f"localsearch.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (node.attr == "roll" or (node.attr == "at" and getattr(node.value, "attr", None) == "add"))
    ]
    assert found == []


def _functions_with_loops_holding(tree, match):
    # Names of the module-level functions that hold a for or while loop
    # containing a node for which match is true.
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            match(sub)
            for loop in ast.walk(node)
            if isinstance(loop, (ast.For, ast.While))
            for sub in ast.walk(loop)
        )
    }


def _is_halving(node):
    # 0.5 * (x + y): a bisection's midpoint.
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 0.5
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Add)
    )


def _is_sign_change(node):
    # (x > 0) != (y > 0): two consecutive residuals of different sign.
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], ast.NotEq)
        and all(isinstance(side, ast.Compare) and isinstance(side.ops[0], ast.Gt) for side in [node.left, *node.comparators])
    )


def test_ellipse_halves_and_scans_only_inside_its_root_finders():
    # The settled scan and window live in the one scan-and-bisect root
    # finder: only the bisection and the inline tie loops halve a
    # bracket, and only _find_root walks samples for a sign change
    # (ellipse_construct's sample grid over b looks for feasible points).
    tree = dict(_modules())["ellipse.py"]
    assert _functions_with_loops_holding(tree, _is_halving) == {"_bisect", "_inner_tie", "_outer_steps", "_outer_tie"}
    assert _functions_with_loops_holding(tree, _is_sign_change) == {"_find_root"}


def test_ellipse_passes_err_only_from_its_err_helpers():
    # An err promises a proven float error bound, so each one a root finder
    # is given comes from a `_*_err` helper beside its proof, never from a
    # literal or an expression at the call.
    tree = dict(_modules())["ellipse.py"]
    passed = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords if kw.arg == "err"]
    names = [v.func.id if isinstance(v, ast.Call) and isinstance(v.func, ast.Name) else ast.dump(v) for v in passed]
    assert all(re.fullmatch(r"_\w+_err", name) for name in names), names
    assert sorted(names) == ["_flat_err", "_inner_err", "_outer_err"]
