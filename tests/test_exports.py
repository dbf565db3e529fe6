import ast
import importlib
import inspect
import re
from pathlib import Path

import dqcalib

MODULES = sorted(Path(dqcalib.__file__).parent.glob("*.py"))
REFERENCE = re.compile(r":(?:func|meth|class|attr):`~?([\w.]+)`")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module(path):
    return importlib.import_module(f"dqcalib.{path.stem}".removesuffix(".__init__"))


def test_every_export_resolves_once():
    names = dqcalib.__all__
    assert sorted(set(names)) == sorted(names)
    assert [name for name in names if not hasattr(dqcalib, name)] == []


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(_module(path), "__all__", ()))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _resolves(target, scopes):
    missing = object()
    for scope in scopes:
        obj = scope
        for part in target.split("."):
            obj = getattr(obj, part, missing)
            if obj is missing:
                break
        else:
            return True
    return False


def test_every_docstring_reference_resolves():
    # a reference resolves against its module, the module's classes, the
    # package and its errors; a dotted dqcalib.* path against the package
    modules = [_module(path) for path in MODULES]
    dangling = []
    for path, module in zip(MODULES, modules):
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == module.__name__]
        scopes = [module, *classes, dqcalib, dqcalib.errors]
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for target in REFERENCE.findall(ast.get_docstring(node) or ""):
                name = target.removeprefix("dqcalib.")
                if not _resolves(name, [dqcalib] if name != target else scopes):
                    dangling.append(f"{path.name}:{getattr(node, 'lineno', 1)} {target}")
    assert dangling == []
