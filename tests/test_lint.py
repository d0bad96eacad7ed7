"""Source checks that need no installed linter."""

import ast
import importlib
import inspect
from pathlib import Path

import latentheads

SOURCES = sorted(Path(latentheads.__file__).parent.glob("*.py"))


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_module_private_name_of_an_imported_module_is_read():
    reads = []
    for path in SOURCES:
        module = importlib.import_module(
            "latentheads" if path.stem == "__init__" else f"latentheads.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and inspect.ismodule(getattr(module, node.value.id, None))
                    and node.attr.startswith("_") and not node.attr.endswith("__")):
                reads.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert reads == []


def test_parameters_are_made_only_by_the_registry():
    # a Parameter made elsewhere would be missing from checkpoints and from Adam
    made = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        registry = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                    and path.name == "nn.py" and cls.name == "Parameters"
                    for node in ast.walk(cls)}
        made += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and id(node) not in registry
                 and "Parameter" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    assert made == []
