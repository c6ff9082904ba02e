"""Count the lines of the ppchow sources: total, code, docstring and comment-only.

Usage: ``python tests/source_size.py [DIR]`` (default: ``src/ppchow`` next to
this directory).  Prints one row per module and a total.  A docstring line
is one spanned by the docstring of a module, class or function (read with
``ast``); a code line is one on which ``tokenize`` finds a token that is not
a comment, a line break or indentation, outside docstrings; a comment-only
line is one whose only token is a comment.  Blank lines make up the rest.
Uses only the standard library, and pytest does not collect it.
"""

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source):
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source):
    """(lines, code, docstring, comment-only) of one module's source."""
    docs = docstring_lines(source)
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(source.splitlines()), len(code), len(docs), len(comments - code - docs)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0] if argv else
                        pathlib.Path(__file__).resolve().parents[1] / "src" / "ppchow")
    total = [0, 0, 0, 0]
    print(f"{'module':<20}{'lines':>8}{'code':>8}{'doc':>8}{'comment':>9}")
    for path in sorted(root.glob("*.py")):
        row = count(path.read_text())
        total = [a + b for a, b in zip(total, row)]
        print(f"{path.name:<20}{row[0]:>8}{row[1]:>8}{row[2]:>8}{row[3]:>9}")
    print(f"{'total':<20}{total[0]:>8}{total[1]:>8}{total[2]:>8}{total[3]:>9}")


if __name__ == "__main__":
    main()
