"""The repvol command line's fixtures, and the digests of what it prints.

    python3 tests/cli_parity.py

writes ``tests/cli_digests.txt``: one line per command that
``build_fixtures`` returns, holding its argv, its exit code and the
SHA-256 of its stdout and of its stderr.  The commands cover every
subcommand and output format, every arrangement in every ambient at the
sizes around its shape rule, each refusal class and exit code, and batch
directories.  ``tests/test_cli.py`` replays every command through
``replay`` and compares the lines with the file, so any byte the command
line prints differently fails the tier-1 suite.  When an output change
is intended, rerun this script and name each command whose line moved.

Each command runs in-process through ``repvol.cli.main``, from the
directory holding the fixtures, with ``RV_DB`` unset and argparse
wrapping at 80 columns, as in a fresh process writing to a pipe.  A
command that lets an exception escape ``main`` stops the run with its
name: a traceback is never a recorded output.  Standard library only;
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

DIGESTS = Path(__file__).resolve().with_name("cli_digests.txt")
HEADER = ("# argv | exit code | SHA-256 of stdout | SHA-256 of stderr; "
          "written by\n# tests/cli_parity.py, replayed by test_cli.py\n")
AMBIENTS = ("TxI", "SolidTorus", "S3", "S2xS1")
FORMATS = ("plain", "json", "markdown")


def cycle_graph(size, untagged=False):
    """The JSON of the even cycle with its edge reflections."""
    half = size // 2
    reflections = []
    for a in range(half):
        swaps = [[a, a + 1], [(a + half) % size, (a + half + 1) % size]]
        if untagged and a == 0:
            swaps = swaps[1:]
        reflections.append({
            "mapping": [[v, (2 * a + 1 - v) % size] for v in range(size)],
            "swaps": swaps})
    return {"vertices": list(range(size)),
            "edges": [[v, (v + 1) % size] for v in range(size)],
            "reflections": reflections, "ambient": "S3"}


def cycle_graph_repeating(size, swaps=None):
    """``cycle_graph(size)`` with its first reflection listed again, tagged
    with ``swaps``, or with its own tags if None."""
    data = cycle_graph(size)
    first = data["reflections"][0]
    data["reflections"].append({
        "mapping": first["mapping"],
        "swaps": first["swaps"] if swaps is None else swaps})
    return data


def lattice_graph(rows, cols):
    """The JSON of the torus grid with its row and column reflections;
    vertices are [i, j] pairs, read back as tuples."""
    vertices = [[i, j] for i in range(rows) for j in range(cols)]
    edges = []
    for i, j in vertices:
        edges += [[[i, j], [(i + 1) % rows, j]], [[i, j], [i, (j + 1) % cols]]]
    reflections = []
    for a in range(rows // 2):
        rows_hit = (a, (a + rows // 2) % rows)
        reflections.append({
            "mapping": [[[i, j], [(2 * a + 1 - i) % rows, j]]
                        for i, j in vertices],
            "swaps": [[[i, j], [(i + 1) % rows, j]] for i in rows_hit
                      for j in range(cols)]})
    for b in range(cols // 2):
        cols_hit = (b, (b + cols // 2) % cols)
        reflections.append({
            "mapping": [[[i, j], [i, (2 * b + 1 - j) % cols]]
                        for i, j in vertices],
            "swaps": [[[i, j], [i, (j + 1) % cols]] for j in cols_hit
                      for i in range(rows)]})
    return {"vertices": vertices, "edges": edges,
            "reflections": reflections, "ambient": "S3"}


def plain_graph(size, edges, reflections=()):
    return {"vertices": list(range(size)), "edges": edges,
            "reflections": list(reflections)}


def c6_with(mapping, swaps):
    """The 6-cycle with one reflection, for the axiom refusals."""
    return plain_graph(6, [[v, (v + 1) % 6] for v in range(6)],
                       [{"mapping": [[v, mapping(v)] for v in range(6)],
                         "swaps": swaps}])


def cube_with_stabilizer():
    """The cube with its three coordinate flips and a fourth reflection
    whose group fixes a vertex."""
    edges = [[v, v ^ bit] for v in range(8) for bit in (1, 2, 4)
             if v < v ^ bit]
    reflections = [{"mapping": [[v, v ^ bit] for v in range(8)],
                    "swaps": [e for e in edges if e[0] ^ e[1] == bit]}
                   for bit in (1, 2, 4)]
    reflections.append({
        "mapping": [[v, ((v & 1) | (v & 2) << 1 | (v & 4) >> 1) ^ 1]
                    for v in range(8)],
        "swaps": [[0, 1], [6, 7]]})
    return plain_graph(8, edges, reflections)


def template(id, faces, strands, **extra):
    return dict({"id": id, "faces": faces, "strands": strands}, **extra)


SAUCER = template("saucer S", [[1, 2], [1, 2]],
                  [[[1, 1], [1, 2]], [[2, 1], [2, 2]]])
SQUARE = template("square 2", [[1], [1], [1], [1]],
                  [[[1, 1], [2, 1]], [[3, 1], [4, 1]]])
CYLINDER = template("cylinder 2", [[1, 2], [1, 2]],
                    [[[1, 1], [2, 1]], [[1, 2], [2, 2]]])

TEMPLATES = {
    "saucer": SAUCER,
    "square": SQUARE,
    "cylinder": CYLINDER,
    "cylinder-3": template("cylinder 3", [[1, 2, 3], [1, 2, 3]],
                           [[[1, 1], [2, 1]], [[1, 2], [2, 2]],
                            [[1, 3], [2, 3]]], interfaces=[1]),
    "boundary": dict(SAUCER, free_boundary=[0, 1], closed_components=2,
                     interfaces=[3]),
    "unmatched": template("x", [[1, 2]], []),
    "shapeless": template("x", 5, []),
    "list": [1],
    "labels": template("x", [[2, 1], [1, 2]], []),
    "loops-inf": dict(SAUCER, closed_components=float("inf")),
    "loops-float": dict(SAUCER, closed_components=2.9),
    "faces-float": dict(SAUCER, faces=[[1.9, 2.2], [1, 2]]),
    "ends-text": dict(SAUCER, strands=[[[1, 1], [1, 2]], [[2, 1], ["2", 2]]]),
    "genus-float": dict(SAUCER, free_boundary=[0.5]),
    "interfaces-bool": dict(SAUCER, interfaces=[True]),
}

SCHEDULES = {
    "saucer": ["2", "4", "6", "3", "0", "2,2", "x", "100000000000000000000"],
    "square": ["2,2", "2,4", "4,6", "2", "2,3", "2,100000000000000000000",
               "1000,1002"],
    "cylinder": ["2", "8"],
    "cylinder-3": ["4"],
    "boundary": ["4"],
}

WORDS = {
    "v4": {"order": 10, "indices": [1] * 8 + [2, 2]},
    "w12": {"order": 12, "indices": [1, 2, 3, 3, 2, 1, 1, 2, 3, 3, 2, 1]},
    "basis": {"order": 4, "indices": [1, 1, 1, 1]},
    "odd": {"order": 5, "indices": [1, 1, 1, 1, 1]},
    "float-order": {"order": 10.0, "indices": [1] * 8 + [2, 2]},
    "text": {"order": "ten", "indices": [1]},
    "shapeless": {"order": 4, "indices": 5},
    "list": [4],
}

INLINE_WORDS = [("10", "1,1,1,1,1,1,1,1,2,2"), ("8", "1,2,2,1,1,2,2,1"),
                ("6", "1,1,2,2,3,3"), ("4", "1,1,1"), ("4", "a,b")]

EXPRESSIONS = ["rat(1/2)", "rat(2 1)", "q(1)", "q(3)",
               "sum(rat(3/2), rat(3/2))", "sum(rat(2 1), q(1))",
               "refl(rot(sum(rat(1/3), q(2))))",
               "rot(rat(5))", "rat(inf)", "q(0)", "sum(rat(2))", "frob(1)",
               "refl(" * 50 + "rat(2/3)" + ")" * 50]


def arrangement_specs():
    """Each arrangement in each ambient at the sizes around its shape
    rule, as (file name, link description)."""
    out = []
    for ambient in AMBIENTS:
        for n in (0, 1, 2, 3, 4, 6):
            out.append(("bracelet-%s-%d" % (ambient, n),
                        {"arrangement": "bracelet", "ambient": ambient,
                         "slots": ["1/4"] * (n - 1) + ["1/5"] * (n > 0)}))
        for n in (0, 1, 2, 3):
            out.append(("stack-%s-%d" % (ambient, n),
                        {"arrangement": "cylinder-stack", "ambient": ambient,
                         "slots": ["2", "3"][:n] + ["2"] * (n - 2)}))
        for rows, cols in ((0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                           (3, 2), (2, 4), (4, 2), (3, 3), (4, 4)):
            out.append(("lattice-%s-%dx%d" % (ambient, rows, cols),
                        {"arrangement": "lattice", "ambient": ambient,
                         "rows": rows, "cols": cols, "slot": "2"}))
        out.append(("custom-%s" % ambient,
                    {"arrangement": "custom", "ambient": ambient,
                     "slots": [{"family": "reciprocal-saucer",
                                "conway": "1/4", "signature": [4]},
                               {"family": "rational-square", "conway": "2",
                                "signature": [2, 2]}]}))
    return out


MORE_SPECS = [
    ("bracelet6", {"name": "bracelet6", "arrangement": "bracelet",
                   "ambient": "S3", "slots": ["1/4"] * 5 + ["1/5"],
                   "reference_volume": "32.9819"}),
    ("clasp4", {"arrangement": "bracelet", "ambient": "S3",
                "slots": ["1/2", "1/4", "1/4", "1/4"]}),
    ("lattice-listed", {"arrangement": "lattice", "ambient": "S3",
                        "rows": 2, "cols": 2,
                        "slots": ["2", "3", {"conway": "2 1"}, "-2"]}),
    ("lattice-ragged", {"arrangement": "lattice", "ambient": "S3",
                        "rows": 2, "cols": 2, "slots": ["2"] * 3}),
    ("lattice-huge", {"arrangement": "lattice", "ambient": "TxI",
                      "rows": 10 ** 20, "cols": 2, "slot": "2"}),
    ("lattice-over", {"arrangement": "lattice", "ambient": "TxI",
                      "rows": 1001, "cols": 1000, "slot": "2"}),
    ("lattice-float", {"arrangement": "lattice", "ambient": "S3",
                       "rows": 2.9, "cols": 2, "slot": "2"}),
    ("stack-rotated", {"arrangement": "cylinder-stack", "ambient": "TxI",
                       "slots": [{"conway": "2", "orientation": "rotated"}]}),
    ("custom-nosig", {"arrangement": "custom", "ambient": "S3",
                      "slots": [{"family": "reciprocal-saucer",
                                 "conway": "1/4"}]}),
    ("custom-nofamily", {"arrangement": "custom", "ambient": "S3",
                         "slots": [{"conway": "1/4", "signature": [4]}]}),
    ("custom-badsig", {"arrangement": "custom", "ambient": "S3",
                       "slots": [{"family": "reciprocal-saucer",
                                  "conway": "1/4", "signature": [2.9]}]}),
    ("mystery", {"arrangement": "mystery", "ambient": "S3", "slots": ["2"]}),
    ("nowhere", {"arrangement": "bracelet", "ambient": "Nowhere",
                 "slots": ["1/4", "1/4"]}),
    ("noslots", {"arrangement": "bracelet", "ambient": "S3"}),
    ("slots-text", {"arrangement": "bracelet", "ambient": "S3",
                    "slots": "1/4"}),
    ("slot-number", {"arrangement": "bracelet", "ambient": "S3",
                     "slots": [4, 4]}),
    ("conway-empty", {"arrangement": "bracelet", "ambient": "S3",
                      "slots": ["", "1/4"]}),
    ("family-unknown", {"arrangement": "bracelet", "ambient": "S3",
                        "slots": [{"conway": "1/4", "family": "x"}] * 2}),
    ("uncertified", {"arrangement": "bracelet", "ambient": "S3",
                     "slots": ["1/7", "1/7"]}),
    ("top-list", [1, 2]),
    ("name-object", {"name": {"a": 1}, "arrangement": "bracelet",
                     "ambient": "S3", "slots": ["1/4"] * 4}),
    ("reference-list", {"arrangement": "bracelet", "ambient": "S3",
                        "slots": ["1/4"] * 4, "reference_volume": [1]}),
    # Strings that repeat, among object slots naming the same tangles
    # and others.
    ("lattice-mixed", {"arrangement": "lattice", "ambient": "TxI",
                       "rows": 4, "cols": 4,
                       "slots": ["2", {"conway": "2"}, "3", "-2", "2 1",
                                 {"conway": "-2"}, "2", {"conway": "4"},
                                 "3", " 2  1", "2", {"conway": "5"},
                                 "-2", "2", "3", {"conway": "2 1"}]}),
    ("lattice-uncertified", {"arrangement": "lattice", "ambient": "TxI",
                             "rows": 2, "cols": 4,
                             "slots": ["2", "3", "7", "2", "7", "3",
                                       {"conway": "7"}, "7"]}),
    ("conway-blank", {"arrangement": "bracelet", "ambient": "S3",
                      "slots": ["1/3", " - "]}),
]

# Few tangles written in several ways, each repeated many times.
MIXED_40 = [("2 1", " 2  1", "-3")[(i * i + i // 7) % 3] for i in range(1600)]
REPEAT_SPECS = [
    ("lattice40-repeat", {"name": "lattice40", "arrangement": "lattice",
                          "ambient": "TxI", "rows": 40, "cols": 40,
                          "slots": MIXED_40}),
    ("bracelet6-repeat", {"name": "bracelet6-repeat",
                          "arrangement": "bracelet", "ambient": "S3",
                          "slots": ["1/4", "-1/4", "1/5", "1/4", " 1/4",
                                    "1/5"],
                          "reference_volume": "32.9819"}),
]

DB_QUERIES = [
    ["--family", "reciprocal-saucer", "--conway", "1/2", "--ambient", "S3"],
    ["--family", "reciprocal-saucer", "--conway", "1/4", "--ambient", "S3",
     "--signature", "6"],
    ["--family", "rational-square", "--conway", "2", "--ambient", "S3"],
    ["--family", "rational-square", "--conway", "2", "--ambient", "TxI",
     "--signature", "2,2"],
    ["--family", "integer-cylindrical", "--conway", "3", "--ambient", "TxI"],
    ["--family", "reciprocal-saucer", "--conway", "1/9", "--ambient", "S3"],
    ["--family", "reciprocal-saucer", "--conway", "1/4", "--ambient", "S3",
     "--signature", "3"],
    ["--family", "reciprocal-saucer", "--conway", "1/4", "--ambient", "S3",
     "--signature", "x"],
]

TABLES = {
    "table-empty": {"entries": [], "limits": {}},
    "table-bad": {"entries": [5]},
    "table-bad-limit": {"entries": [], "limits": {"1/4": [1, 2]}},
    "table-negative-limit": {"entries": [], "limits": {"1/4": "-1"}},
    "table-limit-twice": {"entries": [],
                          "limits": {"1/4": "-1", "-1/4": "7"}},
    "table-empty-limit": {"entries": [], "limits": {" - ": "7"}},
    "table-small": {"entries": [
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [2], "volume": "3.5"},
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [4], "volume": "0"}],
        "limits": {"1/4": "7.0"}},
}
# Volumes and limits that are not finite numbers, and limits that JSON
# types as a bool or a float.
for name, volume, limit in (("nan-volume", float("nan"), "7.0"),
                            ("infinite-volume", "Infinity", "7.0"),
                            ("nan-limit", "3.5", "NaN"),
                            ("infinite-limit", "3.5", float("inf")),
                            ("true-limit", "3.5", True),
                            ("float-limit", "3.5", 0.1)):
    TABLES["table-" + name] = {"entries": [
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [6], "volume": volume}], "limits": {"1/4": limit}}


def write(path, data):
    with open(path, "w") as f:
        json.dump(data, f)


def build_fixtures(root):
    """Write the input files and return the commands, as argv lists."""
    commands = []
    for name, data in WORDS.items():
        write(os.path.join(root, "word-%s.json" % name), data)
        for fmt in FORMATS:
            commands.append(["reduce", "word-%s.json" % name,
                             "--format", fmt])
            commands.append(["reduce", "word-%s.json" % name,
                             "--certificate", "--format", fmt])
    for order, indices in INLINE_WORDS:
        commands.append(["reduce", "--order", order, "--indices", indices])
        commands.append(["reduce", "--order", order, "--indices", indices,
                         "--certificate", "--format", "markdown"])
    commands.append(["reduce", "word-v4.json", "--order", "10"])
    commands.append(["reduce"])

    for name, data in TEMPLATES.items():
        write(os.path.join(root, "template-%s.json" % name), data)
        for schedule in SCHEDULES.get(name, ["2"]):
            commands.append(["replicate", "template-%s.json" % name,
                             "--schedule", schedule])
    commands.append(["replicate", "template-missing.json", "--schedule", "2"])

    specs = arrangement_specs() + MORE_SPECS
    for name, data in specs:
        write(os.path.join(root, "spec-%s.json" % name), data)
        path = "spec-%s.json" % name
        commands.append(["bound", path])
        commands.append(["bound", path, "--format", "json"])
        commands.append(["report", path])
    for extra in (["--compare", "t=6"], ["--compare", "t=2", "--compare",
                                         "t=9"], ["--compare", "t=1"],
                  ["--compare", "six"], ["--precision", "3"],
                  ["--precision", "12", "--format", "json"],
                  ["--compare", "t=%d" % 10 ** 20],
                  ["--compare", "t=%d" % 10 ** 41],
                  ["--precision", "12", "--compare", "t=%d" % 10 ** 38]):
        commands.append(["bound", "spec-bracelet6.json"] + extra)
    batches = {"batch-mixed": [name for name, _ in specs[:40:3]]
               + ["bracelet6", "uncertified", "mystery", "lattice-huge"],
               "batch-good": ["bracelet6", "clasp4", "lattice-listed"],
               "batch-uncertified": ["bracelet6", "uncertified"],
               "batch-empty": []}
    for batch, names in batches.items():
        os.mkdir(os.path.join(root, batch))
        for name in names:
            write(os.path.join(root, batch, name + ".json"), dict(specs)[name])
        for fmt in FORMATS:
            commands.append(["bound", batch, "--format", fmt])
        commands.append(["report", batch])

    for expr in EXPRESSIONS:
        for fmt in FORMATS:
            commands.append(["classify", expr, "--format", fmt])

    graphs = {"c4": cycle_graph(4), "c6": cycle_graph(6), "c8": cycle_graph(8),
              "untagged": cycle_graph(6, untagged=True),
              "c6-repeat": cycle_graph_repeating(6),
              "c6-repeat-tag-no-edge": cycle_graph_repeating(6, [[0, 2]]),
              "c6-repeat-tag-kept": cycle_graph_repeating(6, [[1, 2]]),
              "shapeless": {"vertices": 3}, "empty": plain_graph(0, []),
              "lattice": lattice_graph(4, 4),
              "c5": plain_graph(5, [[v, (v + 1) % 5] for v in range(5)]),
              "loop": plain_graph(2, [[0, 1], [1, 1]]),
              "two-c4": plain_graph(8, [[v, (v + 1) % 4 + 4 * (v >= 4)]
                                        for v in range(8)]),
              "irregular": plain_graph(3, [[0, 1], [1, 2]]),
              "no-edges": plain_graph(1, []),
              "not-permutation": c6_with(lambda v: 0, [[0, 1]]),
              "non-involution": c6_with(lambda v: (v + 1) % 6, [[0, 1]]),
              "same-side": c6_with(lambda v: {0: 2, 2: 0}.get(v, v), [[0, 1]]),
              "edge-moved": c6_with(lambda v: v ^ 1, [[0, 1]]),
              "tag-no-edge": c6_with(lambda v: (1 - v) % 6, [[0, 2]]),
              "tag-kept": c6_with(lambda v: (1 - v) % 6, [[1, 2]]),
              "no-tags": c6_with(lambda v: (1 - v) % 6, []),
              "cube-stabilizer": cube_with_stabilizer(),
              "unhashable-image": plain_graph(2, [[0, 1]], [
                  {"mapping": [[0, {}], [1, 0]], "swaps": [[0, 1]]}])}
    for name, data in graphs.items():
        write(os.path.join(root, "graph-%s.json" % name), data)
        path = "graph-%s.json" % name
        for fmt in ("plain", "json"):
            commands.append(["graph", "validate", path, "--format", fmt])
        commands.append(["graph", "product", path])
        for t in ("saucer", "square", "faces-float"):
            commands.append(["graph", "replicant", path, "--template",
                             "template-%s.json" % t])

    for name, data in TABLES.items():
        write(os.path.join(root, name + ".json"), data)
    for query in DB_QUERIES:
        for fmt in ("plain", "json"):
            commands.append(["db", "query"] + query + ["--format", fmt])
        commands.append(["db", "query", "--db", "table-small.json"] + query)
    for table in [None] + sorted(TABLES):
        db = [] if table is None else ["--db", table + ".json"]
        for fmt in ("plain", "json"):
            commands.append(["db", "check"] + db + ["--format", fmt])
        if db:  # the spec loop already runs it without --db
            commands.append(["bound", "spec-bracelet6.json"] + db)
    commands.append(["db", "check", "--db", "table-missing.json"])
    commands.append(["--precision", "13", "db", "check"])
    commands.append(["frobnicate"])

    # Reports of many slots over few tangles, in every format and as a
    # directory batch.
    os.mkdir(os.path.join(root, "batch-repeat"))
    for name, data in REPEAT_SPECS:
        write(os.path.join(root, "spec-%s.json" % name), data)
        write(os.path.join(root, "batch-repeat", name + ".json"), data)
        for fmt in FORMATS:
            commands.append(["bound", "spec-%s.json" % name, "--compare",
                             "t=6", "--format", fmt])
    commands.append(["bound", "batch-repeat", "--compare", "t=6",
                     "--format", "json"])
    return commands


def digest(argv):
    """Run ``repvol argv`` in-process: (digest line, stdout, stderr)."""
    from repvol import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses with exit code 2
            code = exc.code
        except Exception as exc:
            raise RuntimeError("repvol %s let %s escape"
                               % (" ".join(argv), type(exc).__name__)) \
                from exc
    out, err = out.getvalue(), err.getvalue()
    line = " | ".join([json.dumps(argv), str(code)]
                      + [hashlib.sha256(text.encode()).hexdigest()
                         for text in (out, err)])
    return line, out, err


def replay(root):
    """Write the fixtures under root and run each command from there:
    a list of (argv, digest line, stdout, stderr)."""
    commands = build_fixtures(root)
    cwd = os.getcwd()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        os.environ.pop("RV_DB", None)
        os.chdir(root)
        try:
            return [(argv,) + digest(argv) for argv in commands]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.path.append(str(DIGESTS.parent.parent / "src"))
    with tempfile.TemporaryDirectory(prefix="repvol-digests-") as root:
        lines = [line for _, line, _, _ in replay(root)]
    DIGESTS.write_text(HEADER + "".join(line + "\n" for line in lines))
    print("%d commands written to %s" % (len(lines), DIGESTS))
