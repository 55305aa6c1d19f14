"""Count the code, docstring, comment and blank lines of src/cumbia.

    python3 tools/src_lines.py

Prints one row per module of src/cumbia and a total row. A line is code
if it holds a token other than a comment outside a module, class or
function docstring; otherwise it is a docstring line if a docstring spans
it, a comment line if it holds a comment, and blank if it holds nothing.
The four counts of a module sum to its line count (wc -l).
"""

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstrings(tree):
    """(start, end) line and the start position of every docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield (first.lineno, first.end_lineno,
                       (first.lineno, first.col_offset))


def count_lines(path):
    """The module's line count of each of KINDS."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    found = list(docstrings(ast.parse(text)))
    starts = {start for _, _, start in found}
    in_doc, code, comment = set(), set(), set()
    for first, last, _ in found:
        in_doc.update(range(first, last + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT and tok.start not in starts:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, text.count("\n") + 1):
        kind = ("code" if line in code else "docstring" if line in in_doc
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    return counts


def main():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "cumbia", "*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<18}" + "".join(f"{k:>10}" for k in KINDS)
          + f"{'lines':>10}")
    for path in paths:
        counts = count_lines(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{os.path.basename(path):<18}"
              + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<18}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")


if __name__ == "__main__":
    main()
