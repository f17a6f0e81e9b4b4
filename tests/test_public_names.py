"""Every name the demos and the README's Python blocks import from ``pgcn`` exists.

The files are parsed with ``ast`` and never run, so a renamed or deleted
public name fails here in milliseconds instead of only when someone runs
a demo or pastes the Quick start.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def example_sources():
    """(label, code) for each demo script and each README Python block."""
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("demos/*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += [(f"README.md block {i}", code) for i, code in enumerate(PYTHON_BLOCK.findall(readme))]
    return sources


def pgcn_imports(code):
    """(module, name) for each ``from pgcn[.x] import name``; name is None for ``import pgcn[.x]``."""
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "pgcn":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "pgcn")


def resolves(module, name):
    """Whether ``import module`` (name None) or ``from module import name`` would succeed."""
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(imported, name)


SOURCES = example_sources()


def test_examples_found():
    labels = [label for label, _ in SOURCES]
    assert len([label for label in labels if label.endswith(".py")]) == 4
    assert any(label.startswith("README.md") for label in labels)


@pytest.mark.parametrize("label, code", SOURCES, ids=[label for label, _ in SOURCES])
def test_imported_pgcn_names_exist(label, code):
    imports = list(pgcn_imports(code))
    assert imports, f"{label} imports nothing from pgcn"
    assert [f"{module}.{name}" for module, name in imports if not resolves(module, name)] == []


def test_resolves_names_and_modules():
    assert resolves("pgcn", "Arm") and resolves("pgcn.cli", None)
    assert not resolves("pgcn", "ExperimentSpec") and not resolves("pgcn.nope", None)


def test_pgcn_imports_reads_both_import_forms():
    code = "import pgcn.cli\nimport numpy\nfrom pgcn import (Arm,\n    Nope)\nfrom .x import y\n"
    assert list(pgcn_imports(code)) == [("pgcn.cli", None), ("pgcn", "Arm"), ("pgcn", "Nope")]
