"""Bound a 1000 x 1000 lattice through the command line, in plain text,
markdown and JSON, and check the exit code, the total and the peak
memory; then count the strands of a square tangle's replicant on the
100 x 100 lattice reflection graph, and of its 1000 x 1000 replicant.

    PYTHONPATH=src python tests/scale_check.py

Each run is a fresh process; CI runs this script under ``timeout 300``.
A ``python -m repvol.cli bound`` run fails the check if it exits
non-zero, prints a total other than the one summed here from the
shipped table, or peaks above 150 MB resident (the children's
``ru_maxrss``).  The million slots name three tangles in five
spellings.  The graph run builds, validates and replicates the lattice
graph; it must count ComponentCount(200, 0) and stay within the bound
runs' 150 MB.  The replicant run, ``repvol.COPY_LIMIT`` copies, must
count ComponentCount(2000, 0) and peak below 500 MB.  The children's
``ru_maxrss`` is a running maximum, so the runs go in rising order of
their limits.  Standard library only; pytest does not collect this file.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

SIDE = 1000
GRAPH_SIDE = 100
LIMIT_MB = 150
REPLICANT_LIMIT_MB = 500
GRAPH = """
from repvol.graphs import (g_replicant, lattice_reflection_graph,
                           validate_reflection_graph)
from repvol.pieces import count_components, square_template
graph = lattice_reflection_graph(%d, %d)
validate_reflection_graph(graph)
print(count_components(g_replicant(graph, square_template("2")).complex))
""" % (GRAPH_SIDE, GRAPH_SIDE)
REPLICANT = """
from repvol.pieces import count_components, replicate, square_template
print(count_components(replicate(square_template("2"), (%d, %d))))
""" % (SIDE, SIDE)
SPELLINGS = {"2": "2", "3": "3", "2 1": "2 1", " 2  1": "2 1", "-3": "3"}
TABLE = Path(__file__).resolve().parent.parent / "src" / "repvol" / "data" \
    / "tables1-4.json"


def expected_total(slots):
    """The total to 8 places, from the table's rows at (2, 2) in TxI."""
    volumes = {row["conway"]: Fraction(Decimal(row["volume"]))
               for row in json.loads(TABLE.read_text())["entries"]
               if row["family"] == "rational-square"
               and row["ambient"] == "TxI" and row["signature"] == [2, 2]}
    total = sum(volumes[SPELLINGS[s]] * slots.count(s) for s in SPELLINGS)
    scaled = round(total * 10 ** 8)
    return "%d.%08d" % divmod(scaled, 10 ** 8)


def printed_total(argv, fmt):
    """Run ``repvol bound`` and return its total line, reading the output
    as it comes."""
    marker = {"plain": "total: ", "markdown": "**Total: ",
              "json": '  "total": "'}[fmt]
    found = None
    with subprocess.Popen([sys.executable, "-m", "repvol.cli", "bound"]
                          + argv, stdout=subprocess.PIPE, text=True) as run:
        for line in run.stdout:
            if line.startswith(marker):
                found = line[len(marker):].rstrip().rstrip('",*')
        code = run.wait()
    if code != 0:
        sys.exit("repvol bound %s exited %d" % (" ".join(argv), code))
    return found


def check_count(name, program, side, limit_mb):
    """Run ``program`` in a fresh process, and check that it prints the
    strand count of a ``side`` x ``side`` square replicant and that the
    runs so far peak within ``limit_mb``."""
    run = subprocess.run([sys.executable, "-c", program],
                         stdout=subprocess.PIPE, text=True, check=True)
    got = run.stdout.strip()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print("%s: %s; peak RSS of the runs so far %.1f MB" % (name, got, peak))
    if got != "ComponentCount(closed=%d, open=0)" % (2 * side):
        sys.exit("%s counted %s" % (name, got))
    if peak > limit_mb:
        sys.exit("%s peaked at %.1f MB, over %d MB" % (name, peak, limit_mb))


def main():
    names = list(SPELLINGS)
    slots = [names[(i * 7 + i // SIDE) % len(names)]
             for i in range(SIDE * SIDE)]
    want = expected_total(slots)
    with tempfile.TemporaryDirectory(prefix="repvol-scale-") as root:
        path = os.path.join(root, "lattice.json")
        with open(path, "w") as f:
            json.dump({"arrangement": "lattice", "ambient": "TxI",
                       "rows": SIDE, "cols": SIDE, "slots": slots}, f)
        for fmt in ("plain", "markdown", "json"):
            got = printed_total([path, "--format", fmt], fmt)
            peak = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            print("%s: total %s; peak RSS of the runs so far %.1f MB"
                  % (fmt, got, peak))
            if got != want:
                sys.exit("%s total %s, expected %s" % (fmt, got, want))
            if peak > LIMIT_MB:
                sys.exit("%s peaked at %.1f MB, over %d MB"
                         % (fmt, peak, LIMIT_MB))
    # in rising order of their limits, as ru_maxrss is a running maximum
    check_count("graph replicant", GRAPH, GRAPH_SIDE, LIMIT_MB)
    check_count("replicant", REPLICANT, SIDE, REPLICANT_LIMIT_MB)

if __name__ == "__main__":
    main()
