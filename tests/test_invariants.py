"""Library self-checks: raised explicitly, never through ``assert``."""

import ast
import importlib.util
from pathlib import Path

import pytest

import repvol
from repvol import InvariantViolation, cli, words

SOURCE = Path(repvol.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_no_assert_statements_in_library():
    # ``python -O`` strips assert statements, and with them the check
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_library_function_calls_itself():
    # a call per level of input nesting ends in RecursionError on deep
    # input; library code walks on explicit stacks instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {id(func): cls.name for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for func in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(func))
            for call in ast.walk(func):
                target = getattr(call, "func", None)
                if owner is None:
                    # a method's bare-name call reaches a module function
                    hit = (isinstance(target, ast.Name)
                           and target.id == func.name)
                else:
                    hit = (isinstance(target, ast.Attribute)
                           and target.attr == func.name
                           and isinstance(target.value, ast.Name)
                           and target.value.id in ("self", "cls"))
                if hit:
                    found.append(".".join(
                        n for n in (path.stem, owner, func.name) if n))
                    break
    assert found == []


def test_counting_formula_check_raises(monkeypatch):
    monkeypatch.setattr(words.CyclicWord, "letter_counts",
                        lambda self: {1: 1})
    word = words.validate_word(10, [1] * 8 + [2, 2])
    with pytest.raises(InvariantViolation, match="counting formula"):
        words.reduce(word)


def test_cli_maps_invariant_violation_to_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(words.CyclicWord, "letter_counts",
                        lambda self: {1: 1})
    code = cli.main(["reduce", "--order", "10",
                     "--indices", "1,1,1,1,1,1,1,1,2,2"])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal assertion failure:")


def test_benchmark_wrapped_names_exist():
    # The traced benchmark run replaces these library attributes with
    # wrappers; one that is renamed or deleted would break that run.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.LAYERS.items():
        module = tracing.MODULES[layer]
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append("%s.%s" % (layer, name))
    assert missing == []


def test_replay_shares_no_helper_with_reduce():
    # Replay checks reduce's certificates, so it must not reach reduce()
    # or any private name reduce() reaches (its vector arithmetic, a memo,
    # a cache).  Public word primitives such as split_relation() are the
    # relation itself and may be shared; the walk does not enter them.
    tree = ast.parse((SOURCE / "words.py").read_text())
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node

    def reached(*roots):
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in roots or name.startswith("_"):
                todo += [n.id for n in ast.walk(defined[name])
                         if isinstance(n, ast.Name) and n.id in defined]
        return seen

    replay = reached("replay_certificate", "_solve_component",
                     "_components_sinks_first")
    private_to_reduce = {name for name in reached("reduce")
                         if name.startswith("_")}
    assert "reduce" not in replay
    assert private_to_reduce, "the walk found none of reduce's helpers"
    assert replay.isdisjoint(private_to_reduce)
