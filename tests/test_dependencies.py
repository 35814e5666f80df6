"""The package's runtime dependencies stay numpy, scipy and click.

Every module of ``src/stancewatch`` may import only the standard library
and those three, found by walking each file's syntax tree, and
``pyproject.toml`` declares exactly those three as dependencies.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNTIME = {"numpy", "scipy", "click"}


def top_level_imports(path: Path) -> set[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_the_runtime_three():
    sources = sorted((ROOT / "src" / "stancewatch").glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | RUNTIME
    outside = {(p.name, name) for p in sources for name in top_level_imports(p) - allowed}
    assert outside == set()


def test_pyproject_declares_exactly_the_runtime_three():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block is not None
    declared = re.findall(r'"\s*([A-Za-z0-9_.-]+)', block.group(1))
    assert sorted(declared) == sorted(RUNTIME)
