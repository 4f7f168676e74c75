"""repvol benchmark: end-to-end metrics per workload, or a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload words-certify --seed 1 --seconds 20
    python3 bench/run.py --workload links-bound --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own fresh interpreter (bench/worker.py), one
closed-loop client issuing one operation at a time.  Set-up time is the
median over several fresh interpreters.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  A fuller record,
with the environment and per-op verdicts, goes to .bench_out/.
See bench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("words-certify", "graphs-validate", "links-bound", "cli-batch")
SETUP_RUNS = 5  # extra fresh interpreters that only time set-up

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "success_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(argv, timeout):
    # A fixed hash seed: str hashing otherwise changes dict probe costs,
    # and with them the op mix's speed, from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("worker %s failed (exit %d):\n%s"
                         % (" ".join(argv), proc.returncode,
                            proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, args):
    common = ["--workload", name, "--size", args.size]
    setups = [_worker(common + ["--setup-only"], 60)
              for _ in range(SETUP_RUNS)]
    argv = common + ["--seed", str(args.seed), "--seconds",
                     str(args.seconds), "--trace", str(args.trace)]
    if args.plant_wrong:
        argv.append("--plant-wrong")
    res = _worker(argv, 170)
    setups.append(res)
    res["setup_samples"] = [s["setup_s"] for s in setups]
    res["setup_scaled_samples"] = [s["setup_scaled_s"] for s in setups]

    attempted = sum(sum(v.values()) for v in res["verdicts"].values())
    failed = sum(n for v in res["verdicts"].values()
                 for outcome, n in v.items() if outcome not in ("ok",
                                                                "refused"))
    res["attempted"], res["failed"] = attempted, failed
    res["correct"] = not any("wrong" in v for v in res["verdicts"].values())
    if args.trace:
        res["metrics"] = res.pop("layers")
        return res
    values = _latency_metrics(res["scaled"])
    values.update(success_rate=(attempted - failed) / attempted,
                  setup_s=statistics.median(res["setup_scaled_samples"]),
                  peak_rss_mb=res["peak_rss_mb"])
    res["metrics"] = {k: {"value": values[k], "unit": u}
                      for k, u in END_TO_END.items()}
    raw = _latency_metrics(res["samples"])
    raw["setup_s"] = statistics.median(res["setup_samples"])
    res["raw_metrics"] = raw
    return res


def _latency_metrics(passes):
    samples = sorted(t for times in passes for t in times)
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return {"ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_p90_ms": deciles[8] * 1e3}


def environment():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit}


def report(res, args):
    name = res["workload"]
    print("== %s (seed %d, %s) ==" % (name, res["seed"],
                                     "traced" if args.trace else "untraced"))
    print("  %d ops per pass, %d passes, %.3f s measured, %d samples; "
          "inputs generated in %.3f s (not timed)"
          % (res["ops_per_pass"], res["passes"], res["measured_s"],
             sum(map(len, res["samples"])), res["gen_s"]))
    for kind, tally in sorted(res["verdicts"].items()):
        bad = {k: v for k, v in tally.items() if k not in ("ok", "refused")}
        print("  %-24s %-5s %s" % (kind, "FAIL" if bad else "ok",
                                   ", ".join("%s=%d" % kv
                                             for kv in sorted(tally.items()))))
    print("  error_rate %.6f (%d failed of %d attempted)"
          % (res["failed"] / res["attempted"], res["failed"],
             res["attempted"]))
    if args.trace:
        print("  tracing overhead: %.3f s (traced pass %.3f s, plain pass "
              "%.3f s), %d spans"
              % (res["metrics"]["trace.overhead_s"]["value"], res["traced_s"],
                 res["measured_s"], res["spans"]))
    raw = res.get("raw_metrics", {})
    for key, metric in res["metrics"].items():
        if args.trace and not metric["value"]:
            continue
        print("  %-44s %14.6f %-5s%s" % (
            key, metric["value"], metric["unit"],
            "  (raw wall: %.6f)" % raw[key] if key in raw else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for bench/selfcheck.py")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="plant a wrong expected value (self-check)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repvol", "__init__.py")):
        print("error: no repvol sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    try:
        results = [run_workload(name, args) for name in names]
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    for res in results:
        res["environment"] = env
        report(res, args)
        path = os.path.join(OUT, "result-%s-seed%d%s.json"
                            % (res["workload"], res["seed"],
                               "-trace" if args.trace else ""))
        with open(path, "w") as f:
            json.dump(res, f, indent=1, sort_keys=True)
    print("environment: %s" % json.dumps(env, sort_keys=True))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
