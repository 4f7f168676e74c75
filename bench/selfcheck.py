"""Quick self-check of the benchmark at tiny sizes.

    python3 bench/selfcheck.py

Confirms that every workload named in BENCHMARK.json emits every
end-to-end metric (untraced) and every per-layer metric (traced), that
all tiny ops pass their checks, and that a wrong expected value planted
in the harness (never in src/) is counted as a failed op.  Exits 0 when
all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--size", "tiny", "--seconds", "0.2", *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SystemExit("run.py %s failed:\n%s" % (" ".join(argv),
                                                     proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench("--workload", "all", "--trace", str(trace))
        if not result["correct"] or result["failed"]:
            problems.append("tiny run with --trace %d: %d failed ops"
                            % (trace, result["failed"]))
        for workload in names:
            for metric in spec[key]:
                got = result["metrics"].get(
                    "%s.%s" % (workload, metric["name"]))
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: %s missing or in the wrong unit"
                                    % (workload, metric["name"]))
    for workload in names:
        result = bench("--workload", workload, "--plant-wrong")
        if result["correct"] or result["failed"] < 1:
            problems.append("%s: the planted wrong value was not counted"
                            % workload)
    for line in problems:
        print("FAIL", line)
    print("selfcheck: %s (%d workloads)" % ("FAIL" if problems else "ok",
                                            len(names)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
