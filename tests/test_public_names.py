"""Every name the demos and the README's Python blocks import from ``pgcn`` exists.

Every name a ``pgcn`` module lists in ``__all__`` exists too, so a deleted
function cannot outlive itself in an export list.

The files are parsed with ``ast`` and never run, so a renamed or deleted
public name fails here in milliseconds instead of only when someone runs
a demo or pastes the Quick start.  Likewise every ``pgcn`` command in the
README's shell blocks parses with the CLI's parser, and its JSON config
examples load.
"""

import ast
import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import pgcn
from pgcn.cli import build_parser
from pgcn.experiments import load_experiment_config, load_train_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.MULTILINE | re.DOTALL)


def example_sources():
    """(label, code) for each demo script and each README Python block."""
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("demos/*.py"))]
    sources += [(f"README.md block {i}", code) for i, code in enumerate(PYTHON_BLOCK.findall(README))]
    return sources


def readme_commands():
    """The arguments of each ``pgcn`` line in the README's shell blocks, continuations joined, comments dropped."""
    commands = []
    for block in SH_BLOCK.findall(README):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["pgcn"]:
                commands.append(argv[1:])
    return commands


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


# pgcn.__main__ runs the command when imported and exports nothing
MODULES = ["pgcn"] + [f"pgcn.{info.name}" for info in pkgutil.iter_modules(pgcn.__path__) if info.name != "__main__"]


def test_every_module_found():
    assert {"pgcn", "pgcn.linalg", "pgcn.model", "pgcn.training", "pgcn.crossval"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    exported = getattr(importlib.import_module(module), "__all__", [])
    assert [name for name in exported if not resolves(module, name)] == []


COMMANDS = readme_commands()


def test_readme_shows_every_command():
    assert sorted(argv[0] for argv in COMMANDS) == ["build-graph", "cv", "gradcheck", "rank-report", "synth", "train"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_parses(argv):
    assert build_parser().parse_args(argv).command == argv[0]


def test_readme_config_examples_load(tmp_path):
    experiment, train = JSON_BLOCK.findall(README)
    (tmp_path / "experiment.json").write_text(experiment)
    (tmp_path / "train.json").write_text(train)
    assert [arm.name for arm in load_experiment_config(tmp_path / "experiment.json").arms] == [
        "trainable", "fixed", "control"]
    assert load_train_config(tmp_path / "train.json", ("informative", "nuisance")).arms[0].fixed_omega == (0.8, 0.2)


def private_definitions_and_loads(paths):
    """Where each ``_name`` function or class of ``paths`` is defined (dunders excluded), and every name they load."""
    defined, loaded = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[f"{path.name}:{node.lineno}"] = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return defined, loaded


def test_every_private_helper_has_a_caller():
    defined, loaded = private_definitions_and_loads(sorted((ROOT / "src" / "pgcn").glob("*.py")))
    assert len(defined) > 20
    assert {where: name for where, name in defined.items() if name not in loaded} == {}


def test_private_helper_without_a_load_is_found(tmp_path):
    (tmp_path / "m.py").write_text("def _used():\n    pass\n\nclass _Gone:\n    def _method(self):\n"
                                   "        return _used()\n\nx = _used\n_Gone = None\n")
    defined, loaded = private_definitions_and_loads([tmp_path / "m.py"])
    assert defined == {"m.py:1": "_used", "m.py:4": "_Gone", "m.py:5": "_method"}
    assert sorted(name for name in defined.values() if name not in loaded) == ["_Gone", "_method"]
