"""Count the program's source lines by kind: code, comment, docstring, blank.

    python benchmarks/src_lines.py [DIR]

DIR defaults to the repository's ``src/``.  The output names DIR
relative to the repository, so it is the same in every checkout
(``benchmarks/run_tier1.sh`` keeps it as ``results/src_lines.txt``).
Every ``.py`` file under DIR is read with the standard library's
``tokenize``, and each physical line is counted once, as the first of
these kinds it holds:

* **code** — any token that is not a comment or a docstring;
* **docstring** — a string literal that is a statement of its own
  (module, class, function and attribute docstrings), all its lines;
* **comment** — a ``#`` comment and nothing else;
* **blank** — whitespace only.

A change that deletes code shows in the first row; one that only
trims comments or docstrings does not.
"""

from __future__ import annotations

import os
import sys
import tokenize
from pathlib import Path
from typing import Dict

KINDS = ("code", "docstring", "comment", "blank")

REPO = Path(__file__).resolve().parent.parent

#: tokens that carry no source of their own
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
#: what may precede a statement-level string
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count_file(path: Path) -> Dict[str, int]:
    """Lines of one file by kind."""
    with tokenize.open(path) as fh:
        text = fh.read()
        fh.seek(0)
        tokens = [t for t in tokenize.generate_tokens(fh.readline)
                  if t.type != tokenize.NL]
    kinds: Dict[int, str] = {}
    rank = {kind: i for i, kind in enumerate(KINDS)}
    previous = None
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            previous = tok.type
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif (tok.type == tokenize.STRING and previous in _STATEMENT_START
              and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT)):
            kind = "docstring"
        else:
            kind = "code"
        if tok.type != tokenize.COMMENT:
            previous = tok.type
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in kinds or rank[kind] < rank[kinds[line]]:
                kinds[line] = kind
    counts = dict.fromkeys(KINDS, 0)
    for kind in kinds.values():
        counts[kind] += 1
    counts["blank"] = len(text.splitlines()) - len(kinds)
    return counts


def count_tree(root: Path) -> Dict[str, int]:
    """Lines of every ``.py`` file under ``root`` by kind, plus files."""
    totals = dict.fromkeys(KINDS, 0)
    files = sorted(root.rglob("*.py"))
    for path in files:
        for kind, n in count_file(path).items():
            totals[kind] += n
    totals["files"] = len(files)
    return totals


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else REPO / "src"
    totals = count_tree(root)
    name = os.path.relpath(root.resolve(), REPO)
    print(f"src lines under {name} ({totals['files']} files)")
    for kind in KINDS:
        print(f"  {kind:10s} {totals[kind]:7d}")
    print(f"  {'total':10s} {sum(totals[k] for k in KINDS):7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
