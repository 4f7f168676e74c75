"""Bound a 1000 x 1000 lattice through the command line, in plain text
and in JSON, and check the exit code, the total and the peak memory;
then replicate a square tangle 1000 x 1000 times and count the strands.

    PYTHONPATH=src python tests/scale_check.py

Each run is a fresh process; CI runs this script under ``timeout 300``.
A ``python -m repvol.cli bound`` run fails the check if it exits
non-zero, prints a total other than the one summed here from the
shipped table, or peaks above 150 MB resident (the children's
``ru_maxrss``).  The million slots name three tangles in five
spellings.  The replicant run, ``repvol.COPY_LIMIT`` copies, must count
ComponentCount(2000, 0) and peak below 500 MB.  Standard library only;
pytest does not collect this file.
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
LIMIT_MB = 150
REPLICANT_LIMIT_MB = 500
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
    marker = '  "total": "' if fmt == "json" else "total: "
    found = None
    with subprocess.Popen([sys.executable, "-m", "repvol.cli", "bound"]
                          + argv, stdout=subprocess.PIPE, text=True) as run:
        for line in run.stdout:
            if line.startswith(marker):
                found = line[len(marker):].rstrip().rstrip('",')
        code = run.wait()
    if code != 0:
        sys.exit("repvol bound %s exited %d" % (" ".join(argv), code))
    return found


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
        for fmt in ("plain", "json"):
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
    # after the bound runs, whose peaks are far lower
    run = subprocess.run([sys.executable, "-c", REPLICANT],
                         stdout=subprocess.PIPE, text=True, check=True)
    got = run.stdout.strip()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print("replicant: %s; peak RSS of the runs so far %.1f MB" % (got, peak))
    if got != "ComponentCount(closed=%d, open=0)" % (2 * SIDE):
        sys.exit("replicant counted %s" % got)
    if peak > REPLICANT_LIMIT_MB:
        sys.exit("replicant peaked at %.1f MB, over %d MB"
                 % (peak, REPLICANT_LIMIT_MB))


if __name__ == "__main__":
    main()
