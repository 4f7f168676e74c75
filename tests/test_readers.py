"""Every reader of outside documents answers or refuses by name.

Each valid document below has one value at a time replaced by each of a
fixed set of JSON values, at every position of the document, the whole
document included.  The reader and the operation after it must then
give an answer or raise a refusal class that repvol defines: never a
bare Python error.  Every such mutation runs, so the test needs no
random seed and no allow-list.
"""

import copy

from repvol import LimitExceeded, arborescent, bounds, graphs, pieces, words

REFUSALS = (ValueError, LookupError, LimitExceeded)
REPLACEMENTS = (None, 0, 1.5, True, "x", "", [], {}, [[0]], [1, 2, 3],
                10 ** 30)

DB = bounds.VolumeDB.builtin()


def volume_table(data):
    db = bounds.VolumeDB.from_json_dict(data)
    return bounds.limit_check(db), bounds.column_monotonicity(db)


# (name, valid document, reader followed by its operation)
DOCUMENTS = [
    ("word", {"order": 10, "indices": [1, 1, 1, 1, 1, 1, 1, 1, 2, 2]},
     lambda data: words.reduce(words.CyclicWord.from_json_dict(data))),
    ("graph", graphs.graph_to_json_dict(graphs.cycle_reflection_graph(4)),
     lambda data: graphs.validate_reflection_graph(
         graphs.graph_from_json_dict(data))),
    ("template", pieces.saucer_template("1/4").to_json_dict(),
     lambda data: pieces.replicate(pieces.PieceTemplate.from_json_dict(data),
                                   (4,))),
    ("complex", pieces.replicate(pieces.saucer_template("1/4"),
                                 (4,)).to_json_dict(),
     lambda data: pieces.count_components(
         pieces.GluingComplex.from_json_dict(data))),
    ("expression", arborescent.expr_to_json_dict(
        arborescent.parse_expr("refl(sum(rot(rat(3/2)), q(1)))")),
     lambda data: arborescent.classify(arborescent.expr_from_json_dict(data))),
    ("volume table", {"entries": [
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [4], "orientation": "standard", "volume": "3.5"},
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [6], "volume": "0"}], "limits": {"1/4": "7.0"}},
     volume_table),
    ("lattice", {"name": "grid", "arrangement": "lattice", "ambient": "TxI",
                 "rows": 2, "cols": 2, "reference_volume": "1.5",
                 "slots": ["2", {"conway": "3", "family": "rational-square",
                                 "orientation": "standard"}, "2 1", "-2"]},
     lambda data: bounds.lower_bound(DB, data)),
    ("lattice shorthand", {"arrangement": "lattice", "ambient": "S3",
                           "rows": 2, "cols": 2, "slot": "2"},
     lambda data: bounds.lower_bound(DB, data)),
    ("custom", {"arrangement": "custom", "ambient": "S3", "slots": [
        {"family": "reciprocal-saucer", "conway": "1/4", "signature": [4]},
        {"family": "rational-square", "conway": "2", "signature": [2, 2]}]},
     lambda data: bounds.lower_bound(DB, data)),
]


def positions(data, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list):
        children = enumerate(data)
    else:
        children = ()
    for key, child in children:
        yield from positions(child, path + (key,))


def replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def test_every_one_value_mutation_is_answered_or_refused_by_name():
    leaks = []
    for name, data, operation in DOCUMENTS:
        operation(data)
        for path in positions(data):
            for value in REPLACEMENTS:
                try:
                    operation(replaced(data, path, value))
                except Exception as exc:
                    if not (isinstance(exc, REFUSALS) and type(
                            exc).__module__.startswith("repvol.")):
                        leaks.append("%s at %r = %r: %s: %s" % (
                            name, path, value, type(exc).__name__, exc))
    assert leaks == []
