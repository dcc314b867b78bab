"""The documented quickstarts import names that exist.

Only the import statements of each quickstart are resolved; no walk runs.
"""

import ast
import importlib
import textwrap
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parent.parent / "README.md"


def _package_quickstart() -> str:
    _, _, block = repro.__doc__.partition("Quickstart::\n")
    return textwrap.dedent(block)


def _readme_quickstart() -> str:
    _, _, section = README.read_text().partition("## Quickstart\n")
    _, _, rest = section.partition("```python\n")
    block, _, _ = rest.partition("```")
    return block


def _imported_names(source: str) -> list[tuple[str, str | None]]:
    """Return ``(module, name)`` per imported name (``None`` for ``import m``)."""
    names: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.extend((alias.name, None) for alias in node.names)
    return names


@pytest.mark.parametrize(
    "source", [_package_quickstart, _readme_quickstart], ids=["package", "readme"]
)
def test_quickstart_imports_resolve(source):
    names = _imported_names(source())
    assert names, "quickstart block not found"
    for module, name in names:
        loaded = importlib.import_module(module)
        if name is not None:
            assert hasattr(loaded, name), f"{module} has no {name}"
