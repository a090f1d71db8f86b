"""Sanity checks for the example scripts.

The fast CI tier runs ``quickstart.py`` and ``custom_udf_query.py`` end to
end; here we only verify that every example compiles and exposes a ``main``
entry point, so a broken import or signature change cannot ship unnoticed.
"""

import ast
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_at_least_three_examples_exist():
    assert len(EXAMPLE_FILES) >= 3


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_compiles(path):
    source = path.read_text()
    compile(source, str(path), "exec")


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_has_main_and_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} needs a module docstring"
    function_names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "main" in function_names, f"{path.name} needs a main() entry point"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_only_imports_public_api(path):
    tree = ast.parse(path.read_text())
    imported_modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported_modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported_modules.add(node.module)
    repro_imports = {name for name in imported_modules if name.startswith("repro")}
    assert repro_imports, f"{path.name} should exercise the repro public API"
    # Examples must not reach into private modules.
    assert not any("._" in name for name in repro_imports)
