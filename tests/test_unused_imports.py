"""Every name the package and its tests import is read somewhere in the same
file: the unused-import check of pyflakes, with only the standard library.
And every private function, method or class of the package is used.

src/endorank/__init__.py is left out of the import check, since it imports
names to re-export them."""

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


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """'file: name' for each private function, method or class (named _x,
    not a dunder) that no file reads as a name or an attribute.  Decorated
    definitions are left out: a decorator may register them, as the CLI's
    @_command does its handlers."""
    defined, used = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                d = node.name
                dunder = d.startswith("__") and d.endswith("__")
                if d.startswith("_") and not dunder and not node.decorator_list:
                    defined.append((name, d))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name}: {d}" for name, d in defined if d not in used]


def test_the_dead_definition_check_sees_a_dead_helper():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _K:\n"
        "    def _m(self): pass\n    def __eq__(self, o): pass\n"
        "@register\ndef _handler(): pass\n",
        "b.py": "from a import _used\n_used()\nk._m()\n_K\n_dead = 1\n",
    }
    assert dead_private_definitions(sources) == ["a.py: _dead"]


def test_no_dead_private_definitions():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(ROOT.glob("src/endorank/*.py"))
    }
    assert dead_private_definitions(sources) == []
