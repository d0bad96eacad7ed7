"""Source checks that need no installed linter."""

import ast
import importlib
import inspect
import subprocess
import sys
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


PROBE = """from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # on a falsifying example hypothesis may import libcst to suggest a patch,
    # and that import warns; the repo's warning filters must not make it fatal
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "PASSED test_probe.py::test_passes" in run.stdout
