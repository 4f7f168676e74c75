"""Spans and counts recorded from the benchmark's own wrappers.

``Tracer.install`` replaces public library functions with wrappers, as
module or class attributes.  Calls made inside the package go through
those same attributes, so nested calls become child spans.  Each span is
(name, start, end, parent span, op id); spans stay in memory and are
written out when the run ends.  A layer's self time is its busy time
minus the time its direct child spans cover.
"""

import json
from collections import Counter
from time import perf_counter

from repvol import arborescent, bounds, graphs, pieces, words

# layer -> wrapped functions ("Class.method" for class attributes).
LAYERS = {
    "words": ("validate_word", "split_relation", "reduce",
              "replay_certificate", "verify_certificate"),
    "graphs": ("graph_from_json_dict", "validate_reflection_graph",
               "product_p1", "g_replicant", "graph_isomorphic", "trace_faces",
               "torus_boundary_check", "bigon_bound_check"),
    "pieces": ("replicate", "count_components", "isomorphic",
               "verify_isomorphism", "build_bracelet", "build_torus_lattice",
               "build_cylinder_stack"),
    "bounds": ("parse_link_spec", "lower_bound", "certify_hyperbolic",
               "compose_bound", "VolumeDB.recorded_signatures",
               "VolumeDB.builtin"),
    "arborescent": ("parse_expr", "classify"),
}
MODULES = {"words": words, "graphs": graphs, "pieces": pieces,
           "bounds": bounds, "arborescent": arborescent}

# Counts taken at the same boundaries, and their units.
COUNTS = {
    "words.cert_steps": "count", "words.solved_cycles": "count",
    "words.replay_steps_per_s": "1/s",
    "graphs.group_elements": "count", "graphs.vertices_validated": "count",
    "pieces.copies_built": "count", "pieces.iso_failed": "count",
    "bounds.slots_bounded": "count", "bounds.refused": "count",
}
CLI_COMMANDS = ("reduce", "bound", "report", "classify", "graph",
                "replicate", "db")


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            base = "%s.%s" % (layer, name)
            out[base + ".calls"] = "count"
            out[base + ".busy_s"] = "s"
            out[base + ".self_s"] = "s"
        out.update((k, u) for k, u in COUNTS.items()
                   if k.startswith(layer + "."))
    for cmd in CLI_COMMANDS:
        out["cli.%s.wall_s" % cmd] = "s"
    out["cli.interpreter_s"] = "s"
    out["cli.import_s"] = "s"
    out["cli.exit_mismatch"] = "count"
    out["trace.overhead_s"] = "s"
    return out


def _count_certificate(tracer, args, result, exc):
    if exc is None:
        cert = result[1]
        tracer.counts["words.cert_steps"] += len(cert.steps)
        tracer.counts["words.solved_cycles"] += len(cert.solved_cycles)


def _count_replay(tracer, args, result, exc):
    tracer.counts["words.replayed_steps"] += len(args[0].steps)


def _count_validation(tracer, args, result, exc):
    if exc is None:
        tracer.counts["graphs.group_elements"] += result.group_order
        tracer.counts["graphs.vertices_validated"] += len(args[0].vertices)


def _count_copies(tracer, args, result, exc):
    if exc is None:
        tracer.counts["pieces.copies_built"] += len(result.copies)


def _count_iso(tracer, args, result, exc):
    if exc is not None:
        tracer.counts["pieces.iso_failed"] += 1


def _count_bound(tracer, args, result, exc):
    if exc is None:
        tracer.counts["bounds.slots_bounded"] += len(result.terms)
    elif isinstance(exc, bounds.BoundsError):
        tracer.counts["bounds.refused"] += 1


HOOKS = {
    "words.reduce": _count_certificate,
    "words.replay_certificate": _count_replay,
    "graphs.validate_reflection_graph": _count_validation,
    "pieces.replicate": _count_copies,
    "pieces.build_bracelet": _count_copies,
    "pieces.build_torus_lattice": _count_copies,
    "pieces.build_cylinder_stack": _count_copies,
    "pieces.isomorphic": _count_iso,
    "bounds.lower_bound": _count_bound,
}


class Tracer:
    """Records spans while ``active``; a plain pass-through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.active = False
        self.op = -1

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
                if hook is not None:
                    hook(self, args, result, exc)

        return traced

    def install(self):
        """Wrap every function in LAYERS in place."""
        for layer, names in LAYERS.items():
            module = MODULES[layer]
            for name in names:
                full = "%s.%s" % (layer, name)
                hook = HOOKS.get(full)
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(
                            self.wrap(full, raw.__func__, hook)))
                    else:
                        setattr(cls, attr, self.wrap(full, raw, hook))
                else:
                    setattr(module, name,
                            self.wrap(full, getattr(module, name), hook))

    def layer_metrics(self):
        """calls, busy_s and self_s per wrapped function, plus counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = Counter(), Counter(), Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[sid]
        out = {}
        for layer, names in LAYERS.items():
            for name in names:
                base = "%s.%s" % (layer, name)
                out[base + ".calls"] = calls[base]
                out[base + ".busy_s"] = busy[base]
                out[base + ".self_s"] = own[base]
        for name in COUNTS:
            out[name] = self.counts[name]
        replay = busy["words.replay_certificate"]
        out["words.replay_steps_per_s"] = (
            self.counts["words.replayed_steps"] / replay if replay else 0.0)
        return out

    def dump(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_us", "end_us", "parent",
                                  "op"],
                       "names": names,
                       "spans": [[index[n], round((s - origin) * 1e6),
                                  round((e - origin) * 1e6), p, op]
                                 for n, s, e, p, op in self.spans]}, f)
