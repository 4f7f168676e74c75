"""Command-line front end over the library.

Subcommands mirror the public modules: ``reduce`` (cyclic words),
``replicate`` (piece templates), ``bound`` and ``report`` (volume lower
bounds), ``classify`` (arborescent expressions), ``graph`` (reflection
graphs) and ``db`` (the volume table).  Output is plain text, markdown
or JSON; JSON is always dumped with sorted keys and two-space indent so
repeated runs are byte-identical.

Exit codes: 0 success; 2 malformed input or a refused size (a
RecursionError only from JSON nested too deeply for the stdlib decoder),
printed to stderr as the originating error class name plus message; 3 a
bound was refused because some tangle could not be certified
hyperbolic; 4 internal assertion failure.
"""

import argparse
import json
import os
import re
import sys
from typing import NamedTuple

from . import arborescent, bounds, graphs, pieces, words

FORMATS = ("plain", "json", "markdown")


class UsageError(ValueError):
    """Arguments do not make sense together."""


class CliConfig(NamedTuple):
    db_path: str
    precision: int
    format: str


def _precision(text):
    value = int(text)
    if not 1 <= value <= 12:
        raise argparse.ArgumentTypeError("precision must be within 1..12")
    return value


def _int_list(text):
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise UsageError("expected comma-separated integers, got %r"
                         % text) from None


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_db(config):
    if config.db_path:
        return bounds.VolumeDB.load(config.db_path)
    return bounds.VolumeDB.builtin()


# ---------------------------------------------------------------- reduce

def _load_word(args):
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


def cmd_reduce(args, config):
    word = _load_word(args)
    coefficients, cert = words.reduce(word)
    if args.certificate:
        words.verify_certificate(cert)

    if config.format == "json":
        out = {"word": word.to_json_dict(),
               "coefficients": {str(i): str(c) for i, c in
                                sorted(coefficients.items())}}
        if args.certificate:
            out["certificate"] = cert.to_json_dict()
        print(_dump_json(out))
        return 0

    if config.format == "markdown":
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

def cmd_replicate(args, config):
    template = pieces.PieceTemplate.from_json_dict(_read_json(args.template))
    built = pieces.replicate(template, _int_list(args.schedule))
    print(_dump_json(built.to_json_dict()))
    return 0


# ----------------------------------------------------------------- bound

def _comparisons_from(args):
    out = []
    for item in args.compare or ():
        m = re.fullmatch(r"t=(\d+)", item)
        if m is None:
            raise UsageError("comparisons look like t=<twist number>, "
                             "got %r" % item)
        out.extend(bounds.classical_bounds(int(m.group(1)), "montesinos"))
    return tuple(out)


def _bound_for(path, db, comparisons):
    return bounds.lower_bound(db, _read_json(path), comparisons)


def _plain_report(report, places):
    lines = ["%s: %s in %s, rule %s" % (report.name, report.arrangement,
                                        report.ambient, report.rule)]
    for t in report.terms:
        lines.append("  slot %s: %s %s (%s) = %s [%s, %s]" % (
            t.slot, t.family, t.conway,
            ", ".join(str(n) for n in t.signature),
            t.volume, t.basis, t.provenance))
    lines.append("total: %s" % bounds.format_fixed(report.total, places))
    lines.append("note: %s." % report.equality_note)
    for c in report.comparisons:
        lines.append("compare %s (%s): %s" %
                     (c.name, c.kind, bounds.format_fixed(c.value, places)))
    if report.reference_volume is not None:
        lines.append("reference volume %s (externally computed; not "
                     "derived here)" % report.reference_volume)
    return "\n".join(lines)


def _render_report(report, config):
    if config.format == "json":
        return _dump_json(report.to_json_dict(config.precision))
    if config.format == "markdown":
        return report.to_markdown(config.precision).rstrip("\n")
    return _plain_report(report, config.precision)


def _batch_bound(args, config, db, comparisons):
    names = sorted(n for n in os.listdir(args.spec) if n.endswith(".json"))
    if not names:
        raise UsageError("no .json link descriptions in %s" % args.spec)

    def work(name):
        try:
            return name, _bound_for(os.path.join(args.spec, name),
                                    db, comparisons), None
        except (ValueError, LookupError, OSError) as exc:
            return name, None, exc

    results = [work(name) for name in names]

    if config.format == "json":
        rows = []
        for name, report, exc in results:
            if exc is None:
                rows.append({"file": name,
                             "report": report.to_json_dict(config.precision)})
            else:
                rows.append({"file": name,
                             "error": {"type": type(exc).__name__,
                                       "message": str(exc)}})
        print(_dump_json({"results": rows}))
    else:
        blocks = []
        for name, report, exc in results:
            if exc is None:
                body = _render_report(report, config)
            else:
                body = "error %s: %s" % (type(exc).__name__, exc)
            blocks.append("== %s ==\n%s" % (name, body))
        print("\n\n".join(blocks))

    errors = [exc for _, _, exc in results if exc is not None]
    if any(not isinstance(exc, bounds.UncertifiedTangle) for exc in errors):
        return 2
    if errors:
        return 3
    return 0


def cmd_bound(args, config):
    db = _load_db(config)
    comparisons = _comparisons_from(args)
    if os.path.isdir(args.spec):
        return _batch_bound(args, config, db, comparisons)
    report = _bound_for(args.spec, db, comparisons)
    print(_render_report(report, config))
    return 0


# -------------------------------------------------------------- classify

def cmd_classify(args, config):
    tangle = arborescent.parse_expr(args.expr)
    result = arborescent.classify(tangle)
    signature = arborescent.principal_signature(result)

    if config.format == "json":
        out = result.to_json_dict()
        out["principal_signature"] = (list(signature)
                                      if signature is not None else None)
        print(_dump_json(out))
        return 0

    if config.format == "markdown":
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

def _load_graph(path):
    return graphs.graph_from_json_dict(_read_json(path))


def cmd_graph_validate(args, config):
    graph = _load_graph(args.graph)
    report = graphs.validate_reflection_graph(graph)

    if config.format == "json":
        print(_dump_json({
            "valid": True,
            "valence": report.valence,
            "group_order": report.group_order,
            "edge_classes": report.edge_classes,
            "parts": report.parts,
        }))
        return 0

    print("valid, |G|=%d, edge classes: %d" %
          (report.group_order, len(report.edge_classes)))
    return 0


def cmd_graph_replicant(args, config):
    graph = _load_graph(args.graph)
    graphs.validate_reflection_graph(graph)
    template = pieces.PieceTemplate.from_json_dict(_read_json(args.template))
    built = graphs.g_replicant(graph, template)
    print(_dump_json({"group_order": built.group_order,
                      "complex": built.complex.to_json_dict()}))
    return 0


def cmd_graph_product(args, config):
    graph = _load_graph(args.graph)
    graphs.validate_reflection_graph(graph)
    product = graphs.product_p1(graph)
    print(_dump_json(graphs.graph_to_json_dict(product)))
    return 0


# -------------------------------------------------------------------- db

def _volume_text(volume, places):
    if volume is bounds.NON_HYPERBOLIC:
        return "non-hyperbolic"
    return bounds.format_fixed(volume, places)


def cmd_db_query(args, config):
    db = _load_db(config)
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

    if config.format == "json":
        out = {"rows": [{"signature": list(sig),
                         "volume": _volume_text(entry.volume,
                                                config.precision),
                         "provenance": entry.provenance}
                        for sig, entry in rows]}
        if limit is not None:
            out["limit"] = bounds.format_fixed(limit, config.precision)
        print(_dump_json(out))
        return 0

    for sig, entry in rows:
        print("(%s): %s [%s]" % (", ".join(str(n) for n in sig),
                                 _volume_text(entry.volume,
                                              config.precision),
                                 entry.provenance))
    if limit is not None:
        print("limit: %s" % bounds.format_fixed(limit, config.precision))
    return 0


def cmd_db_check(args, config):
    db = _load_db(config)
    violations = bounds.limit_check(db)
    observations = bounds.column_monotonicity(db)

    if config.format == "json":
        print(_dump_json({
            "violations": [{"kind": v.kind, "subject": v.subject,
                            "detail": v.detail} for v in violations],
            "observations": [{"kind": v.kind, "subject": v.subject,
                              "detail": v.detail} for v in observations],
        }))
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
                   choices=bounds.FAMILIES)
    d.add_argument("--conway", required=True,
                   help="tangle notation, e.g. 1/4 or '2 1'")
    d.add_argument("--ambient", required=True, choices=bounds.AMBIENTS)
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
    config = CliConfig(
        db_path=(getattr(args, "db", None)
                 or os.environ.get("RV_DB") or None),
        precision=getattr(args, "precision", 8),
        format=getattr(args, "format", None) or args.default_format)
    try:
        return args.func(args, config)
    except bounds.UncertifiedTangle as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    except AssertionError as exc:
        print("internal assertion failure: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, LookupError, OSError, RecursionError,
            words.NonTermination, graphs.GroupTooLarge,
            pieces.SizeExceeded) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
