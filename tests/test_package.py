"""Properties of the package source itself."""

import ast
import inspect
from pathlib import Path

import g2kr


def test_no_assert_statement_in_package():
    # python -O strips assert statements, so every check must raise instead
    paths = sorted(Path(g2kr.__file__).parent.glob("*.py"))
    assert {"cli.py", "characters.py", "kr.py", "weights.py"} <= {
        path.name for path in paths
    }
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_lists_every_public_import():
    names = g2kr.__all__
    assert names == sorted(names)
    assert [name for name in names if not hasattr(g2kr, name)] == []
    imported = {
        name for name, value in vars(g2kr).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert sorted(imported - set(names)) == []


def test_package_is_integer_only():
    # exact arithmetic only: no fractions/decimal import, no true division
    # (/ or /=) and no float literal anywhere in the package
    found = []
    for path in sorted(Path(g2kr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if (
                any(name.split(".")[0] in ("fractions", "decimal")
                    for name in modules)
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
