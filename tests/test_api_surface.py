"""Guard on the package's public surface: every public name it defines is used
by the package itself or by a demo, so code that only tests need lives in the
tests (``tests/oracles.py``), not in ``src/``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an
    attribute.  Docstrings are string constants and imports are aliases, so
    neither counts."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
    return refs


def public_definitions(tree: ast.Module):
    """(qualified name, name, node) of every public module-level function and
    class and of every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def unused_public_names(root: Path = ROOT) -> list[str]:
    """Public names of ``src/ebloch`` that no code outside their own
    definition, in the package or in ``demos/``, refers to."""
    src = sorted((root / "src" / "ebloch").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in
             src + sorted((root / "demos").glob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for path in src:
        for qualified, name, node in public_definitions(trees[path]):
            if total[name] - references(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualified}")
    return sorted(unused)


def test_every_public_name_is_used_by_the_package_or_a_demo():
    assert unused_public_names() == []


def test_a_name_used_only_inside_its_own_definition_or_a_docstring_is_unused(tmp_path):
    pkg = tmp_path / "src" / "ebloch"
    pkg.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    (pkg / "__init__.py").write_text("from .mod import helper, Kit, used\n")
    (pkg / "mod.py").write_text(
        'def helper(n):\n    """See helper."""\n    return helper(n - 1) if n else 0\n\n\n'
        "def used():\n    return Kit().run()\n\n\n"
        "class Kit:\n    def run(self):\n        return 1\n\n"
        "    def spare(self):\n        return self.spare\n\n"
        "    def _private(self):\n        return 0\n")
    (tmp_path / "demos" / "demo.py").write_text("from ebloch import used\nused()\n")
    assert unused_public_names(tmp_path) == ["mod.Kit.spare", "mod.helper"]
