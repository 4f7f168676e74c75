"""Library self-checks: raised explicitly, never through ``assert``."""

import ast
from pathlib import Path

import pytest

import repvol
from repvol import InvariantViolation, cli, words

SOURCE = Path(repvol.__file__).parent


def test_no_assert_statements_in_library():
    # ``python -O`` strips assert statements, and with them the check
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_counting_formula_check_raises(monkeypatch):
    monkeypatch.setattr(words.WordVector, "constant_part",
                        lambda self: {1: 1})
    word = words.validate_word(10, [1] * 8 + [2, 2])
    with pytest.raises(InvariantViolation, match="counting formula"):
        words.reduce(word)


def test_cli_maps_invariant_violation_to_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(words.WordVector, "constant_part",
                        lambda self: {1: 1})
    code = cli.main(["reduce", "--order", "10",
                     "--indices", "1,1,1,1,1,1,1,1,2,2"])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal assertion failure:")
