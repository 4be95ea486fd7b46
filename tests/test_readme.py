"""The README's examples, run as written.

The command lines under "Examples:" go through ``cli.main`` and must exit
0; the Python quick tour is executed statement by statement and the values
of its bare expressions are checked against what its comments promise.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from wordweight.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_block_after(marker: str, lang: str = "") -> str:
    start = README.index(marker)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


EXAMPLES = [
    shlex.split(line)[1:]
    for line in _fenced_block_after("\nExamples:\n").splitlines()
    if line.startswith("wordweight ")
]


def test_examples_are_found():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_cli_example_exits_0(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


def test_quick_tour_values():
    source = _fenced_block_after("## Library quick tour", "python")
    namespace: dict = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    length, witness, pairing, roots = values
    assert length == 129
    assert witness == ["b^-1 *2", "x(1, 1)"]
    assert pairing.equals(1)
    assert len(roots) == 5 and all(root.is_one() for root in roots)
