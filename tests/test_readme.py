"""The README's library examples run and print what their comments say.

The "Library quick tour" block is executed statement by statement.  Each
bare expression ends in a `# value` comment, which must equal the `repr`
of the expression's value.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    match = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no library quick tour block"
    return match.group(1)


def test_quick_tour_values_match_their_comments():
    source = quick_tour()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            line = stmt.end_lineno
            assert line in comments, f"line {line} of the tour has no value comment"
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[line], ast.get_source_segment(source, stmt)
            checked.append(comments[line])
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["True", "(0, 2, 0)", "Fraction(1, 2)", "Fraction(3, 8)"]
