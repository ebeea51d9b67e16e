"""Package hygiene: the public namespace and the absence of asserts."""

import ast
import contextlib
import io
import re
from pathlib import Path

import ellspec

PACKAGE = Path(ellspec.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _imported_names(path):
    tree = ast.parse(path.read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_is_sorted_resolves_and_matches_the_imports():
    assert ellspec.__all__ == sorted(ellspec.__all__)
    assert [name for name in ellspec.__all__ if not hasattr(ellspec, name)] == []
    assert set(ellspec.__all__) == _imported_names(PACKAGE / "__init__.py")


def test_no_assert_statements_in_the_package():
    """Invariants are explicit raises, which python -O keeps."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_imports_another_modules_private_names():
    """A relative import takes only public names (and dunders), so no module
    reaches into another's internals."""
    found = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert found == []


def test_readme_quickstart_prints_what_it_says():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [
        re.split(r"\s{2,}", line.split("# ", 1)[1])[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["True", "3", "(Fraction(2, 1), Fraction(3, 1))"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
