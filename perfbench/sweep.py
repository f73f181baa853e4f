"""Run ``run.py`` over several seeds and summarise each metric.

From the root of a checkout::

    python3 perfbench/sweep.py --workload replay_chaos --seeds 1-10

prints, per metric, the median, the quartiles and the spread (the distance
between the first and third quartile as a share of the median), and with
``--bounds`` flags any end-to-end spread that exceeds its bound in
``BENCHMARK.json``.  ``--json FILE`` keeps every run's result line.  Runs
are made one after another so they do not compete for the processor.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the driver computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    parser.add_argument("--bounds", action="store_true",
                        help="compare end-to-end spreads with their bounds")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst_ok = True
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        mid, q1, q3, share = spread(values)
        note = ""
        if args.bounds and name in bounds and name != "setup_s":
            ok = share <= bounds[name]
            worst_ok &= ok
            note = (f" bound {bounds[name]:g} "
                    f"{'ok' if share <= bounds[name] / 3 else 'within' if ok else 'EXCEEDED'}")
        print(f"{name:<30} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:.4f}{note}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
