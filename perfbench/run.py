"""Pipeline benchmark: plan sweep, traced replay and chaos replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan_sweep --seed 1 --seconds 20 --trace 0

Every workload runs in a fresh single-threaded interpreter (``worker.py``)
against the sources under ``src/``.  Set-up is timed from process launch
until the worker reports its inputs ready, over several launches, and the
median is reported.  With ``--trace 0`` the command prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it runs the
workload with bench spans around each layer call and prints every
per-layer metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workload details, the layer to end-to-end map and the recorded baseline
are in ``perfbench/spec.json``.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

from benchstats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Launches whose set-up time is measured (the last one runs the workload).
SETUP_LAUNCHES = 3
#: Wall-clock budget for all launches of one invocation.
TIMEOUT_S = 170.0


def _environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _launch(args, out_path, setup_only, deadline):
    """Start one worker; return (set-up seconds, import seconds)."""
    cmd = [
        sys.executable, "-u", os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line.startswith("READY "):
        raise RuntimeError(f"worker exited with code {code}")
    return ready, float(line.split()[1])


def _report(name, value, unit):
    print(f"  {name:<30} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    out_path = os.path.join(work, f"result-{args.workload}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    deadline = time.monotonic() + TIMEOUT_S
    setups, imports = [], []
    try:
        for launch in range(SETUP_LAUNCHES):
            ready, imported = _launch(
                args, out_path, launch < SETUP_LAUNCHES - 1, deadline
            )
            setups.append(ready)
            imports.append(imported)
        with open(out_path, encoding="utf-8") as handle:
            out = json.load(handle)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{out['attempted']} operations, {out['failed']} failed "
          f"(fail_share {out['failed'] / out['attempted']:.6g}) over "
          f"{len(out['passes'])} passes")
    for failure in out["failures"]:
        print(f"  failed: {failure}")
    if args.trace:
        values = dict(out["layers"], **{"cli.import_s": median(imports)})
        wanted = bench["per_layer"]
        acc = out["accounting"]
        print(f"  layer self times + cli.self_s = {acc['layers_plus_self_s']:.6f} s"
              f" per traced pass of {acc['pass_s']:.6f} s")
        if out["missing_probes"]:
            print(f"  probes not found: {', '.join(out['missing_probes'])}")
    else:
        values = dict(out["end_to_end"], setup_s=median(setups))
        wanted = bench["end_to_end"]
        tail = out["tail"]
        print(f"  op_tail_ms is p{tail['percentile']:.4g} of a pass's "
              f"{tail['samples']} operations ({tail['beyond']} beyond it), "
              f"each timed as its median over {tail['passes']} passes; "
              "set-up launches: "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
    metrics = {}
    for metric in wanted:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        _report(metric["name"], value, metric["unit"])
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
