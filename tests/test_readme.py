"""The README's examples run and print what their comments say.

The "Library quick tour" block is executed statement by statement.  Each
bare expression ends in a `# value` comment, which must equal the `repr`
of the expression's value.  Every `cafreq` line of the command-line block
parses, and those that read no input file and run no seeded experiment
exit 0.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from cafreq.cli import build_parser, main

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


def cli_examples() -> list[list[str]]:
    match = re.search(r"## Command-line interface\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no command-line block"
    lines = [shlex.split(line) for line in match.group(1).splitlines() if line.strip()]
    assert all(argv[0] == "cafreq" for argv in lines)
    return [argv[1:] for argv in lines]


def self_contained(argv: list[str]) -> bool:
    # --file reads a rule list the README does not ship; --seed marks a Monte Carlo run
    return "--file" not in argv and "--seed" not in argv


def test_every_cli_example_parses():
    parser = build_parser()
    handlers = [(parser.parse_args(argv).func.__name__, self_contained(argv)) for argv in cli_examples()]
    assert len(handlers) == 10
    # the examples run below: all but `rule surjective --file`, `fn apply` and `xor-limit`
    assert [name for name, run in handlers if run] == [
        "_cmd_rule_info", "_cmd_correlate", "_cmd_sweep", "_cmd_sweep",
        "_cmd_measure_pushforward", "_cmd_measure_contraction", "_cmd_fn_check",
    ]


@pytest.mark.parametrize(
    "argv", [argv for argv in cli_examples() if self_contained(argv)], ids=" ".join
)
def test_self_contained_cli_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
