"""Every name the package and its tests import is read somewhere in the same
file: the unused-import check of pyflakes, with only the standard library.

src/endorank/__init__.py is left out, since it imports names to re-export
them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for path in [*ROOT.glob("src/endorank/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each imported name that is never read."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_reads_and_misses():
    source = "import os.path\nimport re as regex\nfrom json import dumps, loads\nos.sep\nloads\n"
    assert unused_imports(source) == ["line 2: regex", "line 3: dumps"]


@pytest.mark.parametrize("name", FILES)
def test_no_unused_imports(name):
    assert unused_imports((ROOT / name).read_text(encoding="utf-8")) == []
