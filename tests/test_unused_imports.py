"""Three ast checks on the package, with only the standard library.

- Every name the package and its tests import is read somewhere in the same
  file: the unused-import check of pyflakes.
- Every private function, method or class of the package is used.
- Every public function, class, constant and method of the package is read
  by the package itself, apart from a short list of library controls and
  stock inputs that only callers and tests use.

src/endorank/__init__.py is left out of the first and the last: it imports
names only to re-export them, so a name it reads is not a use."""

import ast
from collections import Counter
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


# Public names the package defines but does not read itself.
UNREAD_BY_DESIGN = {
    "endo.py: Endomorphism.point_map",  # perfbench/layertrace.py times it by name
    "groebner.py: clear_caches",  # library controls documented in README
    "mpoly.py: set_degree_cap",
    "groebner.py: reset_stats",  # zeroes groebner.STATS for callers
    "mpoly.py: LEX",  # the stock order and field that callers pass in
    "fields.py: GF8",
}


def _reads(node) -> list[str]:
    """Each name read under node: a loaded name, an attribute, or a string
    constant, since cli._fields(chain, ..., "complete") reads Chain.complete
    by its name."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return out


def _public_definitions(tree):
    """(label, name, node) for each public top-level function, class and
    constant, and each method of a public class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        m = item.name
                        if not (m.startswith("__") and m.endswith("__")):
                            yield f"{node.name}.{m}", m, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, node


def unread_public_definitions(sources: dict[str, str]) -> list[str]:
    """'file: name' for each public definition that no file reads outside
    the definition itself.  Reads are matched by name alone, so a method
    shares its reads with every attribute of the same name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = Counter(r for tree in trees.values() for r in _reads(tree))
    return [
        f"{file}: {label}"
        for file, tree in trees.items()
        for label, name, node in _public_definitions(tree)
        if reads[name] == _reads(node).count(name)
    ]


def test_the_public_definition_check_sees_a_dead_function():
    sources = {
        "a.py": "LIMIT = 3\nSTOCK = 4\ndef used(): pass\ndef dead(): return dead()\n"
        "class K:\n    def m(self): return K\n    def unread(self): pass\n"
        "    def __eq__(self, o): pass\n    def _p(self): pass\n"
        "    flag: bool = True\nclass _Hidden:\n    def m2(self): pass\n",
        "b.py": "from a import used, K, LIMIT\nused(k.m(LIMIT))\nK\n"
        "getattr(k, '_p')\n",
    }
    assert unread_public_definitions(sources) == [
        "a.py: STOCK",
        "a.py: dead",
        "a.py: K.unread",
    ]


def test_no_unread_public_definitions():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(ROOT.glob("src/endorank/*.py"))
        if path.name != "__init__.py"
    }
    assert set(unread_public_definitions(sources)) == UNREAD_BY_DESIGN
