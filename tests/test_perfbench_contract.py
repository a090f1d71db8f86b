"""The names ``perfbench/`` reaches into ``repro`` for must keep existing.

``perfbench/test_smoke.py`` lies outside the tier-1 test paths, so a
deletion in ``src/`` that breaks the benchmark (``--trace 1`` patches every
``perfbench/spans.TARGETS`` entry; ``run.py`` imports helpers and reads
``obs`` constants) would otherwise pass unnoticed.  These checks resolve
each of those names without patching or running anything.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, name: str):
    """``from module_name import name`` without binding anything."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def _trees() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in SOURCES]


def _imports_of(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """``{bound_as: (module, name)}`` for every ``from repro... import`` in a file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def _repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every name imported from ``repro``."""
    return sorted(
        {
            (source, module, name)
            for source, tree in _trees()
            for module, name in _imports_of(tree).values()
        }
    )


def _obs_reads() -> list[tuple[str, str]]:
    """``(file, NAME)`` for every ``obs.NAME`` read where ``obs`` is ``repro.obs``."""
    found = set()
    for source, tree in _trees():
        aliases = {
            alias for alias, imported in _imports_of(tree).items() if imported == ("repro", "obs")
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                found.add((source, node.attr))
    return sorted(found)


def _repro_calls() -> list[tuple[str, str, str, int, tuple[str, ...]]]:
    """Calls of imported repro callables: positional count and keyword names."""
    found = set()
    for source, tree in _trees():
        bound = _imports_of(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id not in bound or any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                continue
            module, name = bound[node.func.id]
            keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
            found.add((source, module, name, len(node.args), keywords))
    return sorted(found)


def test_perfbench_sources_found():
    assert {path.name for path in SOURCES} >= {"run.py", "spans.py", "serve.py"}


@pytest.mark.parametrize(
    ("module_name", "attribute", "layer"), _load_spans().TARGETS, ids=lambda value: str(value)
)
def test_span_target_resolves(module_name, attribute, layer):
    # The lookup ``spans.install`` performs, minus the setattr.
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[leaf] if path else getattr(owner, leaf)
    assert callable(original)


@pytest.mark.parametrize(
    ("source", "module_name", "name"), _repro_imports(), ids=lambda value: str(value)
)
def test_imported_name_resolves(source, module_name, name):
    assert _resolve(module_name, name) is not None


@pytest.mark.parametrize(("source", "name"), _obs_reads(), ids=lambda value: str(value))
def test_obs_attribute_resolves(source, name):
    from repro import obs

    assert hasattr(obs, name), f"{source} reads obs.{name}"


@pytest.mark.parametrize(
    ("source", "module_name", "name", "positional", "keywords"),
    _repro_calls(),
    ids=lambda value: str(value),
)
def test_call_signature_accepted(source, module_name, name, positional, keywords):
    target = _resolve(module_name, name)
    signature = inspect.signature(target)
    # Raises TypeError on an unknown keyword or too many positionals.
    signature.bind_partial(*([None] * positional), **dict.fromkeys(keywords))
