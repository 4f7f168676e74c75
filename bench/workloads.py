"""The four benchmark workloads as lists of checked operations.

Each workload function turns a seeded ``random.Random`` into one *pass*:
a fixed list of ``Op`` objects.  The worker times ``op.call()`` alone;
the check (``op.observe`` against ``op.expected``, or the refusal class)
runs outside the timed region.  Sizes are fixed per workload so that seeds
change the inputs but not how much work a pass holds.
"""

import json
import os
import random
import subprocess
import sys
from typing import NamedTuple

import gen
from repvol import arborescent, bounds, graphs, pieces, words

# Per size: (order, words per pass, min steps, max steps, max cycle
# class, fixed).  Steps are the halving steps a certificate records,
# counted by gen.halving_graph; the cycle class bound keeps one word's
# replay near a second.  Rows marked fixed come from PANEL_SEED rather
# than the run's seed: a certificate's replay cost varies several-fold
# between words of equal size, so the heavy words are one panel shared
# by every run and the seed varies the rest.
WORD_PLAN = {
    "full": [(16, 30, 16, 48, None, False), (20, 60, 70, 90, None, False),
             (24, 16, 100, 180, 16, False), (28, 12, 350, 500, 16, True),
             (32, 3, 1000, 1300, 16, True)],
    "tiny": [(8, 4, 0, None, None, False), (10, 4, 0, None, None, True)],
}
PANEL_SEED = 20211111

# Latencies spread over four decades, so a percentile that falls between
# two lone ops jumps with every small timing change.  Forty C48 and ten
# C150 validations put a block of like ops at p50 and at p90.
GRAPH_SIZES = {
    "full": {"cycles": (8, 12, 16, 20, 24, 32, 40, 64, 100, 200, 400)
             + (48,) * 40 + (150,) * 10,
             "lattices": ((8, 8), (8, 16), (16, 16), (12, 24), (24, 24)),
             "p1_chains": (8, 16, 24), "replicant_cycle": 50,
             "replicant_lattice": (12, 12), "hyperprisms": (8, 16, 32),
             "tori": ((50, 50), (100, 100), (200, 200)),
             "odd_torus": (51, 50), "dipoles": 31,
             "untagged_cycles": (40, 120)},
    "tiny": {"cycles": (8, 12), "lattices": ((4, 4),), "p1_chains": (4,),
             "replicant_cycle": 6, "replicant_lattice": (4, 4),
             "hyperprisms": (4,), "tori": ((4, 4),), "odd_torus": (5, 4),
             "dipoles": 2, "untagged_cycles": (8,)},
}

# As for graphs: 50 TxI 6x6 and 12 TxI 20x20 lattices are blocks of like
# ops at p50 and at p90.  (Sub-millisecond ops, such as short bracelets,
# differ in speed from one process to the next by up to 10%.)
LINK_SIZES = {
    "full": {"bracelets": {4: 3, 6: 3, 8: 3, 10: 3},
             "txi": ((10, 10), (40, 40)) + ((6, 6),) * 50 + ((20, 20),) * 12,
             "stacks": (100, 200, 400), "customs": 4, "composes": 12,
             "expressions": 24, "leaves": 12, "squares": (10, 20, 30, 40)},
    "tiny": {"bracelets": {4: 1, 6: 1}, "txi": ((2, 2),), "stacks": (4,),
             "customs": 1, "composes": 2, "expressions": 3, "leaves": 3,
             "squares": (4,)},
}

CLI_SIZES = {"full": 2, "tiny": 1}


class Op:
    """One timed library call and what it must return or raise."""

    __slots__ = ("kind", "call", "expected", "observe", "refusal",
                 "exit_code")

    def __init__(self, kind, call, expected=None, observe=None,
                 refusal=None, exit_code=None):
        self.kind = kind
        self.call = call
        self.expected = expected
        self.observe = observe or (lambda result: result)
        self.refusal = refusal
        self.exit_code = exit_code


class Context(NamedTuple):
    root: str
    tmpdir: str
    db: object


def build(name, rng, size, ctx):
    """The op list of one pass, plus a description of its sizes."""
    return _PASSES[name](rng, size, ctx)


# ------------------------------------------------------------------ words

def _pick_word(rng, order, low, high, max_class):
    while True:
        seq = gen.walk_word(rng, order)
        if high is None:
            return seq
        adj = gen.halving_graph(seq, high)
        if adj is None or len(adj) < low:
            continue
        if max_class is None or gen.largest_cycle_class(adj) <= max_class:
            return seq


def _word_ops(seq):
    order = len(seq)
    expected = gen.letter_coefficients(seq)
    holder = {}

    def reduce_call():
        holder.clear()
        return words.reduce(words.validate_word(order, seq))

    def keep_certificate(result):
        coefficients, holder["cert"] = result
        return coefficients

    def verify_call():
        return words.verify_certificate(holder["cert"])

    return [Op("reduce", reduce_call, expected, keep_certificate),
            Op("verify_certificate", verify_call, (True, expected),
               lambda ok: (ok, holder["cert"].coefficients))]


def words_certify(rng, size, ctx):
    panel = random.Random(PANEL_SEED)
    ops = []
    for order, count, low, high, max_class, fixed in WORD_PLAN[size]:
        for _ in range(count):
            ops += _word_ops(_pick_word(panel if fixed else rng, order, low,
                                        high, max_class))
    return ops, {"plan": [list(p) for p in WORD_PLAN[size]]}


# ----------------------------------------------------------------- graphs

def _validate_op(kind, data, order, classes):
    def call():
        return graphs.validate_reflection_graph(
            graphs.graph_from_json_dict(data))
    return Op(kind, call, (order, classes, classes),
              lambda r: (r.group_order, len(r.edge_classes), r.valence))


def _p1_chain_op(data, size):
    def call():
        graph = graphs.graph_from_json_dict(data)
        graphs.validate_reflection_graph(graph)
        chain = [graph]
        for _ in range(3):
            chain.append(graphs.product_p1(chain[-1]))
        return chain

    def observe(chain):
        return [(graphs.validate_reflection_graph(g).group_order,
                 len(graphs.validate_reflection_graph(g).edge_classes))
                for g in chain]

    return Op("product_p1", call,
              [(size << k, 2 + k) for k in range(4)], observe)


def _replicant_op(data, template, vertices, edges):
    def call():
        graph = graphs.graph_from_json_dict(data)
        graphs.validate_reflection_graph(graph)
        return graphs.g_replicant(graph, template)
    return Op("g_replicant", call, (vertices, vertices, edges),
              lambda r: (r.group_order, len(r.complex.copies),
                         len(r.complex.gluings)))


def graphs_validate(rng, size, ctx):
    sz = GRAPH_SIZES[size]
    ops = []
    for n in sz["cycles"]:
        ops.append(_validate_op("validate cycle", gen.cycle_graph(rng, n),
                                n, 2))
    for r, c in sz["lattices"]:
        ops.append(_validate_op("validate lattice",
                                gen.lattice_graph(rng, r, c), r * c, 4))
    for n in sz["p1_chains"]:
        ops.append(_p1_chain_op(gen.cycle_graph(rng, n), n))
    n = sz["replicant_cycle"]
    saucer = pieces.PieceTemplate.from_json_dict(
        gen.saucer_template_dict("1/3"))
    ops.append(_replicant_op(gen.cycle_graph(rng, n), saucer, n, n))
    r, c = sz["replicant_lattice"]
    square = pieces.PieceTemplate.from_json_dict(gen.square_template_dict("2"))
    ops.append(_replicant_op(gen.lattice_graph(rng, r, c), square, r * c,
                             2 * r * c))
    for n in sz["hyperprisms"]:
        a, b = gen.hyperprism_and_lattice(rng, n)
        ops.append(Op("graph_isomorphic",
                      lambda a=a, b=b: graphs.graph_isomorphic(a, b), True,
                      lambda m, a=a, b=b: gen.is_edge_isomorphism(m, a, b)))
    for r, c in sz["tori"]:
        edges, rotation = gen.grid_torus(rng, r, c)
        ops.append(Op("trace_faces",
                      lambda e=edges, t=rotation: graphs.trace_faces(e, t),
                      (((4, r * c),), 0, True),
                      lambda f: (f.vector, f.euler, f.bipartite)))
        ops.append(Op("torus_boundary_check",
                      lambda e=edges, t=rotation:
                      graphs.torus_boundary_check(e, t),
                      (True, "CompatibleSquares"),
                      lambda v: (v.compatible, v.reason)))
    edges, rotation = gen.grid_torus(rng, *sz["odd_torus"])
    ops.append(Op("torus_boundary_check",
                  lambda e=edges, t=rotation:
                  graphs.torus_boundary_check(e, t),
                  (False, "OddCycle"), lambda v: (v.compatible, v.reason)))
    for n in range(1, sz["dipoles"] + 1):
        count = 2 * (n + 1)
        edges, rotation = gen.dipole(rng, count)
        ops.append(Op("bigon_bound_check",
                      lambda e=edges, t=rotation, n=n:
                      graphs.bigon_bound_check(e, t, n),
                      (True, count, count),
                      lambda b: (b.passed, b.bigons, b.required)))
    for n in (1, sz["dipoles"]):
        # Two faces, so Euler characteristic 4 - 2(n+1): a torus only
        # for n = 1, where a bigon then blocks the squares.
        edges, rotation = gen.dipole(rng, 2 * (n + 1), planar=False)
        ops.append(Op("bigon_bound_check",
                      lambda e=edges, t=rotation, n=n:
                      graphs.bigon_bound_check(e, t, n),
                      refusal=graphs.NotSphere))
        ops.append(Op("torus_boundary_check",
                      lambda e=edges, t=rotation:
                      graphs.torus_boundary_check(e, t),
                      (False, "BigonFace" if n == 1 else "ChiMismatch"),
                      lambda v: (v.compatible, v.reason)))
    for _ in range(2):
        data = gen.cube_with_fixing_symmetry(rng)
        ops.append(Op("refuse stabilizer",
                      lambda d=data: graphs.validate_reflection_graph(
                          graphs.graph_from_json_dict(d)),
                      refusal=graphs.VertexStabilizerNontrivial))
    for n in sz["untagged_cycles"]:
        data = gen.cycle_missing_reflection(rng, n)
        ops.append(Op("refuse untagged edge",
                      lambda d=data: graphs.validate_reflection_graph(
                          graphs.graph_from_json_dict(d)),
                      refusal=graphs.BadReflection))
    return ops, {"sizes": sz}


# ------------------------------------------------------------------ links

_SAUCERS = ("1/2", "1/3", "1/4", "1/5")
_SQUARES = ("2", "3", "4", "5", "2 1")
_CYLINDERS = ("2", "3", "4", "5")


def _bound_op(kind, ctx, table, spec, ambient, slots):
    """lower_bound on a spec dict, expected from the table by hand."""
    total = gen.table_total(table, ambient, slots)

    def call():
        return bounds.lower_bound(ctx.db, spec)

    if total is None:
        return Op(kind, call, refusal=bounds.UncertifiedTangle)
    return Op(kind, call, total, lambda report: report.total)


def _invalid_op(kind, ctx, spec):
    return Op(kind, lambda: bounds.lower_bound(ctx.db, spec),
              refusal=bounds.ArrangementInvalid)


def _bracelet(rng, count):
    slots = [rng.choice(_SAUCERS[1:]) for _ in range(count)]
    return {"name": "bracelet%d" % count, "arrangement": "bracelet",
            "ambient": "S3", "slots": slots}


def _bracelet_slots(spec):
    demand = (len(spec["slots"]),)
    return [("reciprocal-saucer", s, demand) for s in spec["slots"]]


def _lattice(rng, rows, cols, ambient):
    return {"arrangement": "lattice", "ambient": ambient, "rows": rows,
            "cols": cols,
            "slots": [rng.choice(_SQUARES) for _ in range(rows * cols)]}


def _compose_ops(rng, ctx, table, count):
    ops = []
    for k in range(count):
        if k % 2 == 0:
            a, b = (rng.choice(_CYLINDERS) for _ in range(2))
            refs = [("integer-cylindrical", x, "TxI") for x in (a, b)]
            slots = [("integer-cylindrical", x, (2,)) for x in (a, b)]
            total = gen.table_total(table, "TxI", slots)
            call = (lambda refs=refs: bounds.compose_bound(ctx.db, *refs))
        else:
            target = rng.choice((2, 4))
            a, b = (rng.choice(_SAUCERS) for _ in range(2))
            refs = [("reciprocal-saucer", x, "S3") for x in (a, b)]
            slots = [("reciprocal-saucer", x, (2 * target,)) for x in (a, b)]
            total = gen.table_total(table, "S3", slots)
            total = None if total is None else total / 2
            call = (lambda refs=refs, target=target: bounds.compose_bound(
                ctx.db, *refs, rule="saucer", signature=(target,)))
        if total is None:
            ops.append(Op("compose_bound", call,
                          refusal=bounds.UncertifiedTangle))
        else:
            ops.append(Op("compose_bound", call, total, lambda c: c.bound))
    return ops


def _custom(rng, count, unrecorded):
    """Custom S3 decomposition over recorded square and saucer rows."""
    slots, refs = [], []
    for _ in range(count):
        if rng.random() < 0.5:
            conway = rng.choice(_SQUARES)
            sig = (2, rng.choice((2, 4, 6)))
            family = "rational-square"
        else:
            conway = rng.choice(_SAUCERS[1:])
            sig = (rng.choice((4, 6, 8, 10)),)
            family = "reciprocal-saucer"
        slots.append({"family": family, "conway": conway,
                      "signature": list(sig)})
        refs.append((family, conway, sig))
    if unrecorded:
        # Certified by monotonicity from (2, 2), but no volume at (2, 8).
        conway = rng.choice(_SQUARES)
        slots[-1] = {"family": "rational-square", "conway": conway,
                     "signature": [2, 8]}
        refs[-1] = ("rational-square", conway, (2, 8))
    return {"arrangement": "custom", "ambient": "S3", "slots": slots}, refs


def _square_ops(n):
    square = pieces.PieceTemplate.from_json_dict(gen.square_template_dict("2"))
    natural = pieces.replicate(square, (n, n))
    transposed = pieces.replicate(
        square, pieces.ReplicantSchedule((n, n), (2, 1)))
    witness = {(i, j): (j, i) for i in range(n) for j in range(n)}
    broken = dict(witness)
    broken[0, 0], broken[0, 1] = witness[0, 1], witness[0, 0]
    return [
        Op("replicate", lambda: pieces.replicate(square, (n, n)),
           (n * n, 2 * n * n), lambda c: (len(c.copies), len(c.gluings))),
        Op("count_components", lambda: pieces.count_components(natural),
           (2 * n, 0), tuple),
        Op("isomorphic", lambda: pieces.isomorphic(natural, transposed),
           True, lambda r: r.isomorphic and pieces.verify_isomorphism(
               natural, transposed, r.witness)),
        Op("verify_isomorphism",
           lambda: pieces.verify_isomorphism(natural, transposed, witness),
           True),
        Op("verify_isomorphism",
           lambda: pieces.verify_isomorphism(natural, transposed, broken),
           False),
    ]


def links_bound(rng, size, ctx):
    sz = LINK_SIZES[size]
    table, _ = gen.load_table(_table_path(ctx))
    ops = []
    for count, copies in sz["bracelets"].items():
        for _ in range(copies):
            spec = _bracelet(rng, count)
            ops.append(_bound_op("bound bracelet", ctx, table, spec, "S3",
                                 _bracelet_slots(spec)))
    clasp = _bracelet(rng, 4)
    clasp["slots"][rng.randrange(4)] = "1/2"  # recorded zero at (4,)
    for spec in (_bracelet(rng, 2), clasp):
        ops.append(_bound_op("bound bracelet", ctx, table, spec, "S3",
                             _bracelet_slots(spec)))
    ops.append(_invalid_op("bound bracelet", ctx, _bracelet(rng, 5)))
    for rows, cols in sz["txi"]:
        spec = _lattice(rng, rows, cols, "TxI")
        ops.append(_bound_op(
            "bound lattice", ctx, table, spec, "TxI",
            [("rational-square", s, (2, 2)) for s in spec["slots"]]))
    ops.append(_invalid_op("bound lattice", ctx, _lattice(rng, 3, 4, "TxI")))
    for rows, cols in ((2, 2), (4, 2), (6, 2), (2, 4)):
        spec = _lattice(rng, rows, cols, "S3")
        ops.append(_bound_op(
            "bound lattice", ctx, table, spec, "S3",
            [("rational-square", s, (cols, rows)) for s in spec["slots"]]))
    for count in sz["stacks"]:
        conways = [rng.choice(_CYLINDERS) for _ in range(count)]
        for ambient in ("TxI", "SolidTorus") if count == sz["stacks"][0] \
                else ("TxI",):
            spec = {"arrangement": "cylinder-stack", "ambient": ambient,
                    "slots": conways}
            ops.append(_bound_op(
                "bound stack", ctx, table, spec, ambient,
                [("integer-cylindrical", s, (2,)) for s in conways]))
    for k in range(sz["customs"]):
        spec, refs = _custom(rng, 8, unrecorded=(k == 0))
        ops.append(_bound_op("bound custom", ctx, table, spec, "S3", refs))
    ops += _compose_ops(rng, ctx, table, sz["composes"])
    for _ in range(sz["expressions"]):
        text, verdict = gen.arborescent_expression(rng, sz["leaves"])
        ops.append(Op("classify",
                      lambda t=text: arborescent.classify(
                          arborescent.parse_expr(t)),
                      verdict, lambda c: c.verdict))
    for n in sz["squares"]:
        ops += _square_ops(n)
    return ops, {"sizes": sz}


def _table_path(ctx):
    return os.path.join(ctx.root, "src", "repvol", "data", "tables1-4.json")


# -------------------------------------------------------------------- cli

class CliResult(NamedTuple):
    code: int
    out: list
    err: str


def run_cli(argv, cwd, env):
    """One fresh ``repvol`` process; waits for it to exit."""
    proc = subprocess.run([sys.executable, "-m", "repvol.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    return CliResult(proc.returncode, proc.stdout.splitlines(), proc.stderr)


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src,
                                                      env.get("PYTHONPATH"))))
    env.pop("RV_DB", None)
    return env


def _cli_op(kind, ctx, env, argv, code, lines=(), error=None,
            observe=None):
    """Exit code, the lines stdout must contain, and the error class."""
    lines = tuple(lines)

    def look(r):
        found = tuple(line for line in lines if line in r.out)
        named = r.err.split(":", 1)[0] if r.code else None
        return r.code, found, named, observe(r) if observe else None

    def call():
        # run_cli is looked up at call time, so a traced run sees it.
        return run_cli(argv, ctx.tmpdir, env)

    expected = (code, lines, error, True if observe else None)
    return Op(kind, call, expected, look, exit_code=code)


def _write(ctx, name, data):
    path = os.path.join(ctx.tmpdir, name)
    with open(path, "w") as f:
        json.dump(data, f)
    return name


def _json_count(key, want):
    def count(r):
        try:
            return len(json.loads("\n".join(r.out))[key]) == want
        except (ValueError, KeyError, TypeError):
            return False
    return count


def _coefficient_line(seq):
    """What ``repvol reduce`` prints first for this word."""
    return ", ".join("T%d: %s" % (i, c) for i, c in
                     sorted(gen.letter_coefficients(seq).items()))


def cli_batch(rng, size, ctx):
    env = cli_env(ctx.root)
    table, limits = gen.load_table(_table_path(ctx))
    ops = []
    for k in range(CLI_SIZES[size]):
        seq = gen.walk_word(rng, 12)
        word = _write(ctx, "word%d.json" % k,
                      {"order": len(seq), "indices": list(seq)})
        ops.append(_cli_op("reduce", ctx, env,
                           ["reduce", word, "--certificate"], 0,
                           [_coefficient_line(seq), "replay: ok"]))
        seq = gen.walk_word(rng, 8)
        ops.append(_cli_op("reduce", ctx, env,
                           ["reduce", "--order", "8", "--indices",
                            ",".join(map(str, seq))], 0,
                           [_coefficient_line(seq)]))

        spec = _bracelet(rng, rng.choice((6, 8, 10)))
        total = gen.table_total(table, "S3", _bracelet_slots(spec))
        name = _write(ctx, "bracelet%d.json" % k, spec)
        ops.append(_cli_op("bound", ctx, env, ["bound", name], 0,
                           ["total: %s" % gen.fixed(total)]))
        ops.append(_cli_op("report", ctx, env, ["report", name], 0,
                           ["**Total: %s**" % gen.fixed(total)]))
        spec = _lattice(rng, 8, 8, "TxI")
        total = gen.table_total(table, "TxI", [("rational-square", s, (2, 2))
                                               for s in spec["slots"]])
        name = _write(ctx, "lattice%d.json" % k, spec)
        ops.append(_cli_op("bound", ctx, env, ["bound", name], 0,
                           ["total: %s" % gen.fixed(total)]))
        spec = _bracelet(rng, 2)
        name = _write(ctx, "refused%d.json" % k, spec)
        ops.append(_cli_op("bound", ctx, env, ["bound", name], 3,
                           error="UncertifiedTangle"))
        name = _write(ctx, "odd%d.json" % k, _bracelet(rng, 5))
        ops.append(_cli_op("bound", ctx, env, ["bound", name], 2,
                           error="ArrangementInvalid"))

        text, verdict = gen.arborescent_expression(rng, 4)
        ops.append(_cli_op("classify", ctx, env, ["classify", text], 0,
                           [verdict]))

        n = 30
        name = _write(ctx, "c%d.json" % k, gen.cycle_graph(rng, n))
        ops.append(_cli_op("graph", ctx, env, ["graph", "validate", name], 0,
                           ["valid, |G|=%d, edge classes: 2" % n]))
        ops.append(_cli_op("graph", ctx, env, ["graph", "product", name], 0,
                           observe=_json_count("vertices", 2 * n)))
        name = _write(ctx, "bad%d.json" % k,
                      gen.cycle_missing_reflection(rng, n))
        ops.append(_cli_op("graph", ctx, env, ["graph", "validate", name], 2,
                           error="BadReflection"))

        copies = 8
        name = _write(ctx, "saucer%d.json" % k,
                      gen.saucer_template_dict(rng.choice(_SAUCERS)))
        ops.append(_cli_op("replicate", ctx, env,
                           ["replicate", name, "--schedule", str(copies)], 0,
                           observe=_json_count("copies", copies)))

        conway = rng.choice(_SAUCERS)
        rows = sorted((key[3], volume) for key, volume in table.items()
                      if key[:3] == ("reciprocal-saucer", conway, "S3"))
        lines = ["(%d): %s [builtin]" % (sig[0], gen.fixed(volume)
                                         if volume else "non-hyperbolic")
                 for sig, volume in rows]
        lines.append("limit: %s" % gen.fixed(limits[conway]))
        ops.append(_cli_op("db", ctx, env,
                           ["db", "query", "--family", "reciprocal-saucer",
                            "--conway", conway, "--ambient", "S3"], 0,
                           lines))
        ops.append(_cli_op("db", ctx, env, ["db", "check"], 0,
                           ["no violations"]))
    return ops, {"words_per_pass": 2 * CLI_SIZES[size],
                 "processes_per_pass": len(ops)}


_PASSES = {"words-certify": words_certify,
           "graphs-validate": graphs_validate,
           "links-bound": links_bound, "cli-batch": cli_batch}
