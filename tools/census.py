"""Print the census of settable values in ``src/loopcs`` and its line count.

A settable value is a field of a ``@dataclass`` class or a function
parameter with a default.  They are counted with ``ast``, so nothing is
imported.  The line count is that of ``cat src/loopcs/*.py | wc -l``.
The script only prints; it checks nothing.  A reader that closes early
ends it quietly with exit 141.

Run from anywhere:  python3 tools/census.py
"""
from __future__ import annotations

import ast
import os
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "loopcs"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable(tree: ast.AST) -> list[str]:
    """``Class.field`` for each dataclass field and ``function(param=)`` for
    each parameter with a default, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
            found += [f"{node.name}({a.arg}=)" for a in with_default]
    return found


def main() -> None:
    files = sorted(SRC.glob("*.py"))
    total, lines = 0, 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        names = settable(ast.parse(text))
        total += len(names)
        print(f"{path.name:<16} {len(names):3d}  {', '.join(names)}")
    print(f"settable values: {total}")
    print(f"source lines:    {lines}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:  # the reader went away: stop quietly, as loopcs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
