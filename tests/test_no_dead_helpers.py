"""Every module-level function in the package must have a caller.

A function counts as used when its name is referenced somewhere in the
package (a call, an attribute or an import, in any module including its
own), is exported in ``gometrics.__all__``, or is referenced by the
benchmark scripts in ``bench/``.  A helper that only the tests call is
reported, so it is deleted with its tests instead of kept alive by them.
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


def test_every_module_level_function_is_used():
    used = set(gometrics.__all__)
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        used |= _referenced_names(path)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"module-level functions nothing calls: {unused}"
