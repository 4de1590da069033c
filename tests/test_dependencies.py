"""Guard on the package's run-time dependencies: every absolute import in
``src/ebloch`` is of the standard library or of a dependency that
``pyproject.toml`` declares, and every declared dependency is imported, so a
test-only library such as SciPy cannot come back into a run unnoticed."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# propagate's module __getattr__ imports SciPy only when perfbench's tracer
# reads propagate.scipy; ROADMAP item 1a deletes it with the tracer's overlay
TRACER_SHIM = ("propagate.py", "__getattr__")


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports absolutely."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {id(n) for f in tree.body
               if isinstance(f, ast.FunctionDef) and (path.name, f.name) == TRACER_SHIM
               for n in ast.walk(f)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """``[project] dependencies`` of pyproject.toml, read without tomllib
    (Python 3.11+) so that the guard also runs on Python 3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    deps = ast.literal_eval(re.search(r"^dependencies\s*=\s*(\[.*?\])\s*$", project, re.M | re.S).group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}


def test_package_imports_only_the_stdlib_and_declared_dependencies():
    declared = declared_dependencies()
    assert "scipy" not in declared
    imported = set()
    for path in sorted((ROOT / "src" / "ebloch").glob("*.py")):
        names = absolute_imports(path)
        undeclared = sorted(names - declared - set(sys.stdlib_module_names))
        assert not undeclared, f"{path.name} imports undeclared {undeclared}"
        imported |= names
    assert declared <= imported, f"declared but never imported: {sorted(declared - imported)}"
