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

    replay = reached("replay_certificate")
    private_to_reduce = {name for name in reached("reduce")
                         if name.startswith("_")}
    assert "reduce" not in replay
    assert private_to_reduce, "the walk found none of reduce's helpers"
    assert replay.isdisjoint(private_to_reduce)


def test_words_keeps_no_state_between_calls():
    # reduce() and replay_certificate() each hand split_relation() a fresh
    # memo.  A dict, list or set bound at module or class level, a mutable
    # default argument, a global statement or a functools cache would
    # outlive one call and could be shared by reduce() and the replay that
    # checks it.
    tree = ast.parse((SOURCE / "words.py").read_text())
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
    factories = {"dict", "list", "set", "bytearray", "defaultdict",
                 "Counter", "OrderedDict", "deque", "WeakKeyDictionary",
                 "WeakValueDictionary"}

    def builds_mutable(value):
        if isinstance(value, ast.Call):
            func = value.func
            name = getattr(func, "id", getattr(func, "attr", None))
            return name in factories
        return isinstance(value, mutable)

    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    found = ["line %d binds a mutable object" % node.lineno
             for body in bodies for node in body
             if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
             and builds_mutable(node.value)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = node.args.defaults + node.args.kw_defaults
            found += ["%s has a mutable default" % node.name
                      for value in defaults if builds_mutable(value)]
        elif isinstance(node, ast.Global):
            found.append("line %d declares a global" % node.lineno)
        elif isinstance(node, ast.Import):
            found += ["line %d imports functools" % node.lineno
                      for alias in node.names if alias.name == "functools"]
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.append("line %d imports from functools" % node.lineno)
    assert found == []


REFUSAL_CLASSES = {"ValueError", "LookupError", "OSError", "RecursionError",
                   "LimitExceeded"}


def _names(node):
    """The bare names a class expression or tuple of them lists."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {e.id for e in elts if isinstance(e, ast.Name)}


def test_cli_names_its_refusal_classes_once():
    # single-file and batch runs map exceptions to exit codes by one
    # policy; a second list of classes is how the two drifted apart
    tree = ast.parse((SOURCE / "cli.py").read_text())
    tuples = [node for node in ast.walk(tree) if isinstance(node, ast.Tuple)
              and _names(node) & REFUSAL_CLASSES]
    assert [_names(node) for node in tuples] == [REFUSAL_CLASSES]
    listed = ["line %d" % node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              and _names(node.type) & REFUSAL_CLASSES]
    assert listed == []


def test_cli_reads_nothing_from_sys_modules():
    # exit codes come from the package-root classes, not from looking up
    # whichever layers a command happened to import
    tree = ast.parse((SOURCE / "cli.py").read_text())
    found = ["line %d" % node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "modules"]
    assert found == []
