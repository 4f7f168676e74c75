"""One workload in a fresh interpreter; prints one JSON result line.

Started by run.py, never imported.  The first thing it does is time the
library set-up (import plus ``VolumeDB.builtin()``); with ``--setup-only``
that is all it does.  Then it generates the pass from the seed (not
timed), runs passes until ``--seconds`` have gone by and MIN_OPS ops
have run (whole passes only, so every run holds the same op mix), and
checks every result outside the timed region.  With ``--trace 1`` it
instead runs one plain pass and one traced pass of the same ops and
reports per-layer metrics.

Calibration: a shared host can run the same code 20-40% slower from one
minute to the next.  So between ops (how often: see REFERENCES) the
worker times a fixed reference, and each op latency is also
reported scaled by nominal / (mean of the reference times just before
and just after the op): the time the op would have taken on a host that
runs the reference in exactly its nominal time.  The library workloads
use a pure-Python loop; cli-batch, whose ops are process starts, uses a
bare interpreter start.  Raw wall times are reported beside the scaled
ones.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")


def reference_loop():
    """Seconds for a fixed piece of pure-Python work.

    Tuple slicing, dict stores and Fraction sums, the operations repvol
    spends its time on; nothing from repvol is called.  The collector is
    off meanwhile, and everything the loop allocates is freed before it
    is back on: otherwise a collection of the workload's heap would land
    in the reference time, and the loop's allocations would move the
    points where the ops' own collections run.
    """
    from fractions import Fraction

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        base = tuple(range(32))
        table = {}
        total = Fraction(0)
        start = perf_counter()
        for i in range(700):
            k = i % 32
            table[base[k:] + base[:k]] = i
            total += Fraction(k, 7)
        elapsed = perf_counter() - start
        del table, total
    finally:
        if was_enabled:
            gc.enable()
    return elapsed


def reference_spawn():
    """Seconds to start and stop a bare interpreter.

    Run the way the CLI ops are (output captured): without pipes to wait
    on, a wait with a timeout polls with growing sleeps, which rounds the
    time up to about 64 ms whatever the process costs.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True,
                   check=True, timeout=60)
    return perf_counter() - start


# reference name -> (timing function, nominal seconds, seconds between
# timings).  Process starts vary from one to the next, so one is timed
# before every op.
REFERENCES = {"loop": (reference_loop, 0.0025, 0.05),
              "spawn": (reference_spawn, 0.060, 0.0)}

MIN_OPS = 100  # per run, so that at least 10 samples lie beyond p90


class Clock:
    """Reference timings taken between ops, for scaling latencies."""

    def __init__(self, name):
        self.name = name
        self.reference, self.nominal, self.every = REFERENCES[name]
        self.references = [self.reference()]
        self.last = perf_counter()

    def tick(self):
        """Time the reference if it is due; return the latest index."""
        if perf_counter() - self.last >= self.every:
            self.references.append(self.reference())
            self.last = perf_counter()
        return len(self.references) - 1

    def scale(self, passes):
        """Scaled latencies, one list per pass."""
        self.references.append(self.reference())
        refs = self.references
        return [[t * self.nominal / ((refs[m] + refs[m + 1]) / 2)
                 for t, m in zip(p.times, p.marks)] for p in passes]


def setup(workload):
    """Seconds to import what the workload calls and load the table."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = perf_counter()
    if workload == "cli-batch":
        import repvol.cli  # noqa: F401
    else:
        import repvol.arborescent  # noqa: F401
        import repvol.graphs  # noqa: F401
        import repvol.pieces  # noqa: F401
        import repvol.words  # noqa: F401
    from repvol.bounds import VolumeDB
    db = VolumeDB.builtin()
    return perf_counter() - start, db


def run_op(op, index, tracer=None):
    """Time one op; return (seconds, outcome, result).

    Outcomes: "ok", "refused" (the expected refusal), "raised:<class>"
    (an exception where a value was due) and "wrong" (a wrong value, a
    missing refusal, or a refusal of another class).
    """
    if tracer is not None:
        tracer.op = index
        tracer.active = True
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if op.refusal is not None:
            good = isinstance(exc, op.refusal)
            return elapsed, "refused" if good else "wrong", None
        return elapsed, "raised:" + type(exc).__name__, None
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if op.refusal is not None:
        return elapsed, "wrong", result
    try:
        good = op.observe(result) == op.expected
    except Exception:
        good = False
    return elapsed, "ok" if good else "wrong", result


class Pass:
    """What one pass over the ops measured."""

    def __init__(self):
        self.times = []
        self.marks = []
        self.wall = 0.0
        self.mismatches = 0


def run_pass(ops, verdicts, clock=None, tracer=None):
    """Run every op once, tallying outcomes per op kind into ``verdicts``."""
    result = Pass()
    start = perf_counter()
    for index, op in enumerate(ops):
        if clock is not None:
            result.marks.append(clock.tick())
        elapsed, outcome, value = run_op(op, index, tracer)
        result.times.append(elapsed)
        tally = verdicts.setdefault(op.kind, {})
        tally[outcome] = tally.get(outcome, 0) + 1
        if op.exit_code is not None and \
                getattr(value, "code", op.exit_code) != op.exit_code:
            result.mismatches += 1
    result.wall = perf_counter() - start
    return result


def _median_run(argv, env, times=5):
    walls = []
    for _ in range(times):
        start = perf_counter()
        subprocess.run(argv, env=env, capture_output=True, timeout=60,
                       check=True)
        walls.append(perf_counter() - start)
    return statistics.median(walls)


def cli_startup(env):
    """Bare interpreter start, and importing repvol.cli on top of it."""
    bare = _median_run([sys.executable, "-c", "pass"], env)
    loaded = _median_run([sys.executable, "-c", "import repvol.cli"], env)
    return bare, loaded - bare


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--plant-wrong", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_s, db = setup(args.workload)
    # After set-up, so the set-up time does not profit from its imports.
    timing, nominal, _ = REFERENCES["loop"]
    result = {"setup_s": setup_s,
              "setup_scaled_s": setup_s * nominal
              / statistics.median(timing() for _ in range(3))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import random

    import workloads
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        ctx = workloads.Context(ROOT, tmpdir, db)
        start = perf_counter()
        ops, info = workloads.build(args.workload, random.Random(args.seed),
                                    args.size, ctx)
        result.update(workload=args.workload, seed=args.seed, info=info,
                      gen_s=perf_counter() - start, ops_per_pass=len(ops))
        if args.plant_wrong:
            # A wrong expected value planted here, in the harness, must
            # come out as a failed op.
            first = next(op for op in ops if op.refusal is None)
            first.expected = ("planted wrong value", first.expected)

        verdicts = {}
        if args.trace:
            result.update(traced_run(args, ops, verdicts))
        else:
            clock = Clock("spawn" if args.workload == "cli-batch"
                          else "loop")
            passes = []
            while sum(p.wall for p in passes) < args.seconds or \
                    len(ops) * len(passes) < MIN_OPS:
                passes.append(run_pass(ops, verdicts, clock))
            result.update(passes=len(passes),
                          measured_s=sum(p.wall for p in passes),
                          samples=[p.times for p in passes],
                          scaled=clock.scale(passes),
                          reference=clock.name,
                          references=clock.references,
                          marks=[p.marks for p in passes])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" \
        else resource.RUSAGE_SELF
    result.update(verdicts=verdicts,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


def traced_run(args, ops, verdicts):
    import tracing
    import workloads

    plain = run_pass(ops, verdicts)
    tracer = tracing.Tracer()
    tracer.install()
    # Set-up ran before the wrappers existed; load the table once more
    # under the tracer (op id -1) so its layer shows in the trace.
    tracer.active = True
    tracing.bounds.VolumeDB.builtin()
    tracer.active = False
    cli_walls = {}
    if args.workload == "cli-batch":
        def timed(argv, cwd, env, _run=workloads.run_cli):
            start = perf_counter()
            try:
                return _run(argv, cwd, env)
            finally:
                cli_walls[argv[0]] = cli_walls.get(argv[0], 0.0) + \
                    perf_counter() - start
        workloads.run_cli = tracer.wrap("cli", timed)
    traced = run_pass(ops, verdicts, tracer=tracer)

    layers = tracer.layer_metrics()
    for cmd in tracing.CLI_COMMANDS:
        layers["cli.%s.wall_s" % cmd] = cli_walls.get(cmd, 0.0)
    if args.workload == "cli-batch":
        bare, imported = cli_startup(workloads.cli_env(ROOT))
    else:
        bare = imported = 0.0
    layers.update({"cli.interpreter_s": bare, "cli.import_s": imported,
                   "cli.exit_mismatch": traced.mismatches,
                   "trace.overhead_s": traced.wall - plain.wall})
    tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json"
                             % (args.workload, args.seed)))
    units = tracing.layer_metric_units()
    return {"passes": 2, "measured_s": plain.wall, "traced_s": traced.wall,
            "samples": [plain.times, traced.times],
            "spans": len(tracer.spans),
            "layers": {k: {"value": layers[k], "unit": u}
                       for k, u in units.items()}}


if __name__ == "__main__":
    sys.exit(main())
