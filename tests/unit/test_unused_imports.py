"""No module under ``src/repro`` imports a name it does not use.

No linter ships with this environment, so this scan stands in for
pyflakes' F401 check.  A name counts as used when the module reads it,
names it in ``__all__`` or names it in a string annotation.  An import
kept on purpose (a re-export other modules or tests import through the
module, or an import for its side effects) carries ``# noqa: F401`` on
its line or on the first line of its statement.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
MARK = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return used


def unused_imports(path: pathlib.Path):
    """(line, name) of each unmarked import ``path`` never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any(MARK.search(lines[n - 1]) for n in (node.lineno, alias.lineno))
            if name not in used and not marked:
                found.append((alias.lineno, name))
    return found


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import List, Optional, Tuple\n"
        "import os  # noqa: F401\n"
        "import re  # noqa: E402\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return []\n"
    )
    assert unused_imports(module) == [(1, "Tuple"), (3, "re")]


def test_src_has_no_unused_imports():
    found = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == {}
