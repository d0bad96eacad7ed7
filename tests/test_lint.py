"""Source checks that need no installed linter."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import latentheads
from latentheads import errors, nn

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


def _writes_around_the_helper(source: str, name: str) -> list[str]:
    """Calls in `source` that could write an output, or decide whether one may
    be written, other than through conll.output_file: an open() whose mode may
    write, any os.open, os.access, os.replace, os.rename or os.chmod, or an
    np.save* whose file is not a `with output_file(...) as f` name."""
    tree = ast.parse(source)
    helper = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and name == "conll.py" and fn.name == "output_file" for node in ast.walk(fn)}
    opened = {item.optional_vars.id for node in ast.walk(tree) if isinstance(node, ast.With)
              for item in node.items if isinstance(item.context_expr, ast.Call)
              and "output_file" in (getattr(item.context_expr.func, "id", None),
                                    getattr(item.context_expr.func, "attr", None))
              and isinstance(item.optional_vars, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in helper:
            continue
        func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        owner = getattr(getattr(node.func, "value", None), "id", None)
        if func == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))
        elif func and func.startswith("save") and owner in ("np", "numpy"):
            first = node.args[0] if node.args else None
            writes = not (isinstance(first, ast.Name) and first.id in opened)
        else:
            writes = False
        if writes or owner == "os" and func in ("open", "access", "replace", "rename", "chmod"):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node.func)}")
    return found


def test_only_the_output_helper_opens_an_output():
    # a writer that opens its own path can leave a half-written file behind, and
    # a command that checks a path itself can disagree with the helper's rule
    found = [hit for path in SOURCES
             for hit in _writes_around_the_helper(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
    probe = ("with open(p, 'rb') as f, open(q) as g, output_file(r) as h:\n"
             "    np.savez(h, a=1)\n"
             "io.open(p, 'w'); open(p, mode='ab'); open(p, m); os.open(p, 1)\n"
             "np.save(p, a); np.savez(f, a=1)\n"
             "os.access(p, 2); os.replace(p, q); os.rename(p, q); os.chmod(p, 0)\n"
             "os.path.isdir(p); os.stat(p); os.unlink(p)\n")
    assert [hit.partition(": ")[2] for hit in _writes_around_the_helper(probe, "x.py")] == [
        "io.open", "open", "open", "os.open", "np.save", "np.savez",
        "os.access", "os.replace", "os.rename", "os.chmod"]


def _raises_outside_the_hierarchy(source: str, name: str) -> list[str]:
    """`raise` statements in `source` other than a bare re-raise or one of a class
    of errors.py, OSError or PermissionError: cli.main turns only those, and
    MemoryError, into an exit code, so any other exception ends in a traceback."""
    allowed = {cls for cls, _ in inspect.getmembers(errors, inspect.isclass)}
    allowed |= {"OSError", "PermissionError"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (getattr(exc, "id", None) or getattr(exc, "attr", None)) not in allowed:
                found.append(f"{name}:{node.lineno}: {ast.unparse(node.exc)}")
    return found


def test_every_raise_is_a_package_error_or_an_os_error():
    found = [hit for path in SOURCES
             for hit in _raises_outside_the_hierarchy(path.read_text(encoding="utf-8"),
                                                      path.name)]
    assert found == []
    probe = ("raise\nraise UsageError('x') from None\nraise errors.CheckpointError('x')\n"
             "raise OSError(2, 'x', p)\nraise PermissionError(13, 'x', p)\n"
             "raise ValueError('x')\nraise KeyError\nraise exc\nraise RuntimeError() from exc\n")
    assert [hit.partition(": ")[2] for hit in _raises_outside_the_hierarchy(probe, "x.py")] == [
        "ValueError('x')", "KeyError", "exc", "RuntimeError()"]


def _recording_ops(source: str) -> set[str]:
    """The public functions and methods ("Class.name") of a module's `source`
    that return through `_record`, directly or through private module-level
    helpers that do."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs.update((f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                for fn in cls.body if isinstance(fn, ast.FunctionDef))

    def returns_through(fn, names):
        return any(isinstance(call, ast.Call) and getattr(call.func, "id", None) in names
                   for ret in ast.walk(fn) if isinstance(ret, ast.Return) and ret.value
                   for call in ast.walk(ret.value))

    helpers = {"_record"}
    while grown := {name for name, fn in defs.items()
                    if name.startswith("_") and returns_through(fn, helpers)} - helpers:
        helpers |= grown
    return {name for name, fn in defs.items() if returns_through(fn, helpers)
            and not (name.rpartition(".")[2].startswith("_") and not name.endswith("__"))}


def test_every_recording_op_of_nn_has_a_recording_test():
    # test_nn checks each op of RECORDING_OPS records only with grad on and a tracked input
    from test_nn import RECORDING_OPS

    source = Path(nn.__file__).read_text(encoding="utf-8")
    assert _recording_ops(source) - {case[0] for case in RECORDING_OPS} == set()
    probe = ("def _helper(x):\n    return _record(x, (), None)\n"
             "def _indirect(x):\n    return _helper(x)\n"
             "def op(x):\n    return _indirect(x)\n"
             "def direct(x):\n    return _record(x, (), None)\n"
             "def through_op(x):\n    return op(x)\n"
             "class A:\n    def __getitem__(self, k):\n        return _record(k, (), None)\n"
             "    def _private(self):\n        return _helper(1)\n")
    assert _recording_ops(probe) == {"op", "direct", "A.__getitem__"}


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
