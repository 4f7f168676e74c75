"""Command-line front end over the library.

Subcommands mirror the public modules: ``reduce`` (cyclic words),
``replicate`` (piece templates), ``bound`` and ``report`` (volume lower
bounds), ``classify`` (arborescent expressions), ``graph`` (reflection
graphs) and ``db`` (the volume table).  Output is plain text, markdown
or JSON; JSON is always dumped by ``repvol.JSON_LAYOUT``, sorted keys and
two-space indent, so repeated runs are byte-identical.  A bound report is
written as ``BoundReport.render`` yields it, a block of slot lines at a
time, and a directory's reports one file at a time, so memory follows
the input, not the output; the command only picks the format.

Exit codes: 0 success; 2 malformed input or a refused size (a
RecursionError only from JSON nested too deeply for the stdlib decoder),
printed to stderr as the originating error class name plus message; 3 a
bound was refused because some tangle could not be certified hyperbolic
(``repvol.Uncertified``); 4 internal assertion failure.  A directory of
link descriptions reports each file's refusal, too-deep JSON included,
in place of its bound, and exits 2 if any file was malformed, else 3 if
any was uncertified.

Each command imports the library layers it runs, and no others, so a
process compiles only what its command needs: ``reduce`` loads ``words``
alone, ``classify`` ``arborescent`` alone, and ``bound`` ``bounds`` alone
unless a slot falls back to the classifier.
"""

import argparse
import itertools
import json
import os
import re
import sys

from . import AMBIENTS, FAMILIES, JSON_LAYOUT, LimitExceeded, Uncertified

FORMATS = ("plain", "json", "markdown")

# What a command may raise on bad input or a refused size: reported as
# its class name and message, not as a traceback.
REFUSALS = (ValueError, LookupError, OSError, RecursionError, LimitExceeded)


def _exit_code(refusal):
    """3 for a piece that could not be certified, else 2."""
    return 3 if isinstance(refusal, Uncertified) else 2


class UsageError(ValueError):
    """Arguments do not make sense together."""


def _precision(text):
    value = int(text)
    if not 1 <= value <= 12:
        raise argparse.ArgumentTypeError("precision must be within 1..12")
    return value


def _int_list(text):
    parts = text.replace(",", " ").split()
    # the literals int() reads, so that no ValueError needs catching
    if not all(re.fullmatch(r"[+-]?\d+(_\d+)*", part) for part in parts):
        raise UsageError("expected comma-separated integers, got %r" % text)
    return tuple(int(part) for part in parts)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


_ENCODER = json.JSONEncoder(**JSON_LAYOUT)


def _print_json(obj):
    """Print obj as JSON, 2**14 encoder chunks (never empty) per write, so
    neither the whole text nor a write per chunk (unbuffered) is made."""
    chunks = _ENCODER.iterencode(obj)
    for text in iter(lambda: "".join(itertools.islice(chunks, 1 << 14)), ""):
        sys.stdout.write(text)
    sys.stdout.write("\n")


def _load_db(args):
    from . import bounds
    if args.db:
        return bounds.VolumeDB.load(args.db)
    return bounds.VolumeDB.builtin()


# ---------------------------------------------------------------- reduce

def _load_word(args):
    from . import words
    inline = args.order is not None or args.indices is not None
    if args.word is not None and inline:
        raise UsageError("give a word file or --order/--indices, not both")
    if args.word is not None:
        return words.CyclicWord.from_json_dict(_read_json(args.word))
    if args.order is None or args.indices is None:
        raise UsageError("need a word file, or both --order and --indices")
    return words.validate_word(args.order, _int_list(args.indices))


def _coefficient_line(coefficients):
    return ", ".join("T%d: %s" % (i, c)
                     for i, c in sorted(coefficients.items()))


def cmd_reduce(args):
    from . import words
    word = _load_word(args)
    coefficients, cert = words.reduce(word)
    if args.certificate:
        words.verify_certificate(cert)

    if args.format == "json":
        out = {"word": word.to_json_dict(),
               "coefficients": {str(i): str(c) for i, c in
                                sorted(coefficients.items())}}
        if args.certificate:
            out["certificate"] = cert.to_json_dict()
        _print_json(out)
        return 0

    if args.format == "markdown":
        lines = ["# Reduction: %s" % word, ""]
        lines.append("| subscript | coefficient |")
        lines.append("| --- | --- |")
        for i, c in sorted(coefficients.items()):
            lines.append("| T%d | %s |" % (i, c))
        if args.certificate:
            lines.append("")
            lines.append("Relation chain (each word is half the sum of "
                         "its two doublings):")
            for step in cert.steps:
                lines.append("- %s = (%s + %s) / 2" %
                             (step.word, step.produced[0], step.produced[1]))
            for cyc in cert.solved_cycles:
                lines.append("- solved %s with self-coefficient %s" %
                             (cyc.word, cyc.self_coefficient))
        print("\n".join(lines))
        return 0

    print(_coefficient_line(coefficients))
    if args.certificate:
        print("certificate:")
        for step in cert.steps:
            print("  %s = (%s + %s) / 2  [cut %d, %d]" %
                  (step.word, step.produced[0], step.produced[1],
                   step.cut[0], step.cut[1]))
        for cyc in cert.solved_cycles:
            print("  solved %s: self-coefficient %s" %
                  (cyc.word, cyc.self_coefficient))
        print("replay: ok")
    return 0


# ------------------------------------------------------------- replicate

def cmd_replicate(args):
    from . import pieces
    template = pieces.PieceTemplate.from_json_dict(_read_json(args.template))
    built = pieces.replicate(template, _int_list(args.schedule))
    _print_json(built.to_json_dict())
    return 0


# ----------------------------------------------------------------- bound

def _comparisons_from(args):
    from . import bounds
    out = []
    for item in args.compare or ():
        m = re.fullmatch(r"t=(\d+)", item)
        if m is None:
            raise UsageError("comparisons look like t=<twist number>, "
                             "got %r" % item)
        digits = m.group(1)
        # 0 when there is none; Python 3.10 before 3.10.7 has no limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(digits) > limit:
            # int() would refuse it with a bare ValueError
            raise UsageError("comparison t=<%d digits> has more digits than "
                             "this interpreter reads as an integer (%d)"
                             % (len(digits), limit))
        out.extend(bounds.classical_bounds(int(digits), "montesinos"))
    return tuple(out)


def _encoded(obj, indent):
    """obj as _print_json writes it, every line after the first indented
    by ``indent`` more."""
    return _ENCODER.encode(obj).replace("\n", "\n" + indent)


def _print_batch_row(name, report, exc, args):
    """Print one file's row of a batch: its report or its refusal."""
    write = sys.stdout.write
    if args.format != "json":
        write("== %s ==\n" % name)
        if exc is None:
            sys.stdout.writelines(report.render(args.format, args.precision))
        else:
            write("error %s: %s\n" % (type(exc).__name__, exc))
    elif exc is None:
        head, _, tail = _encoded({"file": name, "report": {}},
                                 "    ").partition('"report": {}')
        write(head + '"report": ')
        sys.stdout.writelines(piece.replace("\n", "\n      ") for piece
                              in report.render("json", args.precision))
        write(tail)
    else:
        write(_encoded({"file": name,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc)}}, "    "))


def cmd_bound(args):
    from . import bounds
    db = _load_db(args)
    comparisons = _comparisons_from(args)
    if not os.path.isdir(args.spec):
        report = bounds.lower_bound(db, _read_json(args.spec), comparisons)
        sys.stdout.writelines(report.render(args.format, args.precision))
        if args.format == "json":
            sys.stdout.write("\n")
        return 0
    names = sorted(n for n in os.listdir(args.spec) if n.endswith(".json"))
    if not names:
        raise UsageError("no .json link descriptions in %s" % args.spec)
    # One document, {"results": [row, ...]} in JSON, else the rows apart
    # by a blank line; each row is printed as soon as its file is bounded.
    opening, between, closing = (
        ('{\n  "results": [\n    ', ",\n    ", "\n  ]\n}\n")
        if args.format == "json" else ("", "\n", ""))
    sys.stdout.write(opening)
    refused = []  # the exit code of each refused file
    for k, name in enumerate(names):
        report = exc = None
        try:
            report = bounds.lower_bound(
                db, _read_json(os.path.join(args.spec, name)), comparisons)
        except REFUSALS as refusal:
            exc = refusal
            refused.append(_exit_code(refusal))
        sys.stdout.write(between if k else "")
        _print_batch_row(name, report, exc, args)
    sys.stdout.write(closing)
    # the least code among the refused files: malformed input beats an
    # uncertified tangle
    return min(refused, default=0)


# -------------------------------------------------------------- classify

def cmd_classify(args):
    from . import arborescent
    tangle = arborescent.parse_expr(args.expr)
    result = arborescent.classify(tangle)
    signature = arborescent.principal_signature(result)

    if args.format == "json":
        out = result.to_json_dict()
        out["principal_signature"] = (list(signature)
                                      if signature is not None else None)
        _print_json(out)
        return 0

    if args.format == "markdown":
        lines = ["# Classification: %s" % args.expr, "",
                 "**%s**" % result.verdict, ""]
        lines.extend("- %s" % reason for reason in result.reasons)
        print("\n".join(lines))
        return 0

    print(result.verdict)
    for reason in result.reasons:
        print("- %s" % reason)
    if signature is not None:
        print("principal signature: (%s)" %
              ", ".join(str(n) for n in signature))
    return 0


# ----------------------------------------------------------------- graph

def cmd_graph_validate(args):
    from . import graphs
    graph = graphs.graph_from_json_dict(_read_json(args.graph))
    report = graphs.validate_reflection_graph(graph)

    if args.format == "json":
        _print_json({
            "valid": True,
            "valence": report.valence,
            "group_order": report.group_order,
            "edge_classes": report.edge_classes,
            "parts": report.parts,
        })
        return 0

    print("valid, |G|=%d, edge classes: %d" %
          (report.group_order, len(report.edge_classes)))
    return 0


def cmd_graph_replicant(args):
    from . import graphs, pieces
    graph = graphs.graph_from_json_dict(_read_json(args.graph))
    graphs.validate_reflection_graph(graph)
    template = pieces.PieceTemplate.from_json_dict(_read_json(args.template))
    built = graphs.g_replicant(graph, template)
    _print_json({"group_order": built.group_order,
                 "complex": built.complex.to_json_dict()})
    return 0


def cmd_graph_product(args):
    from . import graphs
    graph = graphs.graph_from_json_dict(_read_json(args.graph))
    graphs.validate_reflection_graph(graph)
    product = graphs.product_p1(graph)
    _print_json(graphs.graph_to_json_dict(product))
    return 0


# -------------------------------------------------------------------- db

def _volume_text(volume, places):
    from . import bounds
    if volume is bounds.NON_HYPERBOLIC:
        return "non-hyperbolic"
    return bounds.format_fixed(volume, places)


def cmd_db_query(args):
    from . import bounds
    db = _load_db(args)
    if args.signature is not None:
        signature = _int_list(args.signature)
        entry = db.entry(args.family, args.conway, args.ambient,
                         signature, args.orientation)
        rows = [(signature, entry)]
    else:
        recorded = db.recorded_signatures(args.family, args.conway,
                                          args.ambient, args.orientation)
        if not recorded:
            raise bounds.NotFound("no entries for %r" %
                                  ((args.family, args.conway,
                                    args.ambient),))
        rows = sorted(recorded.items())
    limit = db.limit_for(args.conway)

    if args.format == "json":
        out = {"rows": [{"signature": list(sig),
                         "volume": _volume_text(entry.volume, args.precision),
                         "provenance": entry.provenance}
                        for sig, entry in rows]}
        if limit is not None:
            out["limit"] = bounds.format_fixed(limit, args.precision)
        _print_json(out)
        return 0

    for sig, entry in rows:
        print("(%s): %s [%s]" % (", ".join(str(n) for n in sig),
                                 _volume_text(entry.volume, args.precision),
                                 entry.provenance))
    if limit is not None:
        print("limit: %s" % bounds.format_fixed(limit, args.precision))
    return 0


def cmd_db_check(args):
    from . import bounds
    db = _load_db(args)
    violations = bounds.limit_check(db)
    observations = bounds.column_monotonicity(db)

    if args.format == "json":
        _print_json({
            "violations": [{"kind": v.kind, "subject": v.subject,
                            "detail": v.detail} for v in violations],
            "observations": [{"kind": v.kind, "subject": v.subject,
                              "detail": v.detail} for v in observations],
        })
        return 0

    if not violations:
        print("no violations")
    for v in violations:
        print("violation %s %s: %s" % (v.kind, v.subject, v.detail))
    for v in observations:
        print("observation %s %s: %s" % (v.kind, v.subject, v.detail))
    return 0


# ---------------------------------------------------------------- parser

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--db", default=argparse.SUPPRESS,
                        help="volume table JSON (default: RV_DB, then the "
                             "built-in table)")
    common.add_argument("--precision", type=_precision,
                        default=argparse.SUPPRESS, metavar="N",
                        help="fixed-point places, 1..12 (default 8)")
    common.add_argument("--format", choices=FORMATS,
                        default=argparse.SUPPRESS,
                        help="output format (default depends on the "
                             "subcommand)")

    parser = argparse.ArgumentParser(
        prog="repvol", parents=[common],
        description="Volume lower bounds from tangle replication.")
    # The option defaults stay SUPPRESS (the common actions are shared
    # with every subparser, so a real default here would clobber values
    # parsed before the subcommand); main() fills the gaps.
    parser.set_defaults(default_format="plain")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("reduce", parents=[common],
                       help="reduce a cyclic word to basis coefficients")
    p.add_argument("word", nargs="?",
                   help="word JSON file (or use --order/--indices)")
    p.add_argument("--order", type=int, help="word order (an even number)")
    p.add_argument("--indices", help="comma-separated subscripts")
    p.add_argument("--certificate", action="store_true",
                   help="print the relation chain and verify its replay")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("replicate", parents=[common],
                       help="reflect a piece template across a schedule")
    p.add_argument("template", help="piece template JSON file")
    p.add_argument("--schedule", required=True,
                   help="comma-separated copy counts, e.g. 2,4")
    p.set_defaults(func=cmd_replicate, default_format="json")

    for name, fmt in (("bound", "plain"), ("report", "markdown")):
        p = sub.add_parser(
            name, parents=[common],
            help="volume lower bound for a link description"
            if name == "bound" else
            "like bound, rendered as a markdown report")
        p.add_argument("spec",
                       help="link description JSON file, or a directory "
                            "of them")
        p.add_argument("--compare", action="append", metavar="t=N",
                       help="attach twist-number comparison bounds")
        p.set_defaults(func=cmd_bound, default_format=fmt)

    p = sub.add_parser("classify", parents=[common],
                       help="classify an arborescent tangle expression")
    p.add_argument("expr", help="expression, e.g. 'sum(rat(2 1), q(1))'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("graph", parents=[common],
                       help="reflection graph operations")
    gsub = p.add_subparsers(dest="graph_command", required=True,
                            metavar="operation")
    g = gsub.add_parser("validate", parents=[common],
                        help="check the reflection graph axioms")
    g.add_argument("graph", help="graph JSON file")
    g.set_defaults(func=cmd_graph_validate)
    g = gsub.add_parser("replicant", parents=[common],
                        help="build the graph replicant of a template")
    g.add_argument("graph", help="graph JSON file")
    g.add_argument("--template", required=True,
                   help="piece template JSON file")
    g.set_defaults(func=cmd_graph_replicant, default_format="json")
    g = gsub.add_parser("product", parents=[common],
                        help="cross the graph with a two-point fiber")
    g.add_argument("graph", help="graph JSON file")
    g.set_defaults(func=cmd_graph_product, default_format="json")

    p = sub.add_parser("db", parents=[common], help="volume table access")
    dsub = p.add_subparsers(dest="db_command", required=True,
                            metavar="operation")
    d = dsub.add_parser("query", parents=[common],
                        help="look up recorded volumes")
    d.add_argument("--family", required=True,
                   choices=FAMILIES)
    d.add_argument("--conway", required=True,
                   help="tangle notation, e.g. 1/4 or '2 1'")
    d.add_argument("--ambient", required=True, choices=AMBIENTS)
    d.add_argument("--signature",
                   help="comma-separated signature; omit to list all")
    d.add_argument("--orientation", default="standard")
    d.set_defaults(func=cmd_db_query)
    d = dsub.add_parser("check", parents=[common],
                        help="check table entries against limit volumes")
    d.set_defaults(func=cmd_db_check)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    args.db = getattr(args, "db", None) or os.environ.get("RV_DB")
    args.precision = getattr(args, "precision", 8)
    args.format = getattr(args, "format", args.default_format)
    try:
        return args.func(args)
    except AssertionError as exc:
        print("internal assertion failure: %s" % exc, file=sys.stderr)
        return 4
    except REFUSALS as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
