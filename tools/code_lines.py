"""Count the code lines of a Python package.

A code line holds at least one token other than a comment, a newline or an
indent; the lines of module, class and function docstrings are left out.
Prints the count of each module and the total.

    python tools/code_lines.py [DIR]      # DIR defaults to src/lensless_crb
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers spanned by the docstrings of the source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, DOCUMENTED) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/lensless_crb")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
