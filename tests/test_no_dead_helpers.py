"""Every module-level function and method in the package must have a
caller, and every field something that reads it.

A function, method or property counts as used when its name is
referenced somewhere in the package (a call, an attribute or an import,
in any module including its own), is exported in ``gometrics.__all__``,
or is referenced by the benchmark scripts in ``bench/``.  Dunder methods
are called by Python itself and are not checked.  A helper that only the
tests call is reported, so it is deleted with its tests instead of kept
alive by them.

A field (a dataclass field, or an attribute an ``__init__`` sets on
``self``) counts as read when an attribute of its name is loaded
somewhere in the package, ``bench/`` or the tests.  Loads on ``args``
are not counted: that name holds parsed command lines, whose attributes
are argparse destinations, not fields.
"""

import ast
from pathlib import Path

import gometrics

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gometrics"


def _referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _used_names() -> set:
    used = set(gometrics.__all__)
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        used |= _referenced_names(path)
    return used


def test_every_module_level_function_is_used():
    used = _used_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"module-level functions nothing calls: {unused}"


def test_every_method_is_used():
    used = _used_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used
                ):
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    assert not unused, f"methods and properties nothing references: {unused}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef):
    if _is_dataclass(cls):
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield stmt.target.id
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                ):
                    yield node.attr


def test_every_field_is_read():
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) != "args"
            ):
                read.add(node.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                unread += [f"{path.stem}.{cls.name}.{f}" for f in _fields(cls) if f not in read]
    assert not unread, f"fields nothing reads: {unread}"
