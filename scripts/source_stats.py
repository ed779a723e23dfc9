"""Print the package's source line counts and its count of settable options.

Source lines are ``wc -l src/quantdistill/*.py``; the C source lines,
``wc -l src/quantdistill/*.c``, are printed on a line of their own, so that
code moved from Python into C does not read as a saving, and so is their
sum, so that code moved between the two reads as neither saving nor cost. Settable options are
counted with one AST walk: every defaulted parameter of a public function
or of a public method of a public class, plus every field of a public
class whose name ends in ``Config``. Names that start with ``_``, dunder
methods such as ``__init__`` included, are not counted.

Usage::

    python scripts/source_stats.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quantdistill"


def _defaulted(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def option_count(tree: ast.Module) -> int:
    """Defaulted public parameters plus public ``*Config`` fields."""
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += _defaulted(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    count += _defaulted(item)
                elif isinstance(item, ast.AnnAssign) and node.name.endswith("Config"):
                    count += 1
    return count


def line_count(sources: list[str]) -> int:
    """Lines as ``wc -l`` counts them: newline characters."""
    return sum(s.count("\n") for s in sources)


def main() -> int:
    sources = [f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.py"))]
    c_sources = [f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.c"))]
    options = sum(option_count(ast.parse(s)) for s in sources)
    print(f"source lines: {line_count(sources)}")
    print(f"C source lines: {line_count(c_sources)}")
    print(f"total source lines: {line_count(sources + c_sources)}")
    print(f"settable options: {options}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
