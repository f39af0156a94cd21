"""Run one mcmforms benchmark workload from the root of a checkout.

    python3 bench/run.py --workload certify-exact --seed 1 --seconds 30 --trace 0

prints the environment, every metric by name and unit, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.  It
exits 1 when any output was wrong and 2 when the program cannot be loaded.
``--workload all`` runs every workload in turn, each in its own process.
See bench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# Set-up time is measured in reference-machine seconds too (see speed.py).
METER = speed.Speedometer().start(T_START)

import harness  # noqa: E402  (imports no numpy, so threads can still be pinned)
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    summary, worst = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(harness.ROOT), stdout=subprocess.PIPE,
                              text=True, check=False)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary.append((name, json.loads(lines[-1]) if proc.returncode in (0, 1) else None))
    print("# summary")
    for name, res in summary:
        if res is None:
            print(f"{name}: no result")
            continue
        cells = "  ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}  {cells}")
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_threads()
    if args.workload == "all":
        METER.stop()
        return run_all(args)
    try:
        if args.setup_only:
            _, wl, seconds, wall = harness.measure_setup(args.workload, args.seed, False, METER)
            print(json.dumps({"setup_s": seconds, "setup_wall_s": wall,
                              "inputs_digest": wl.inputs_digest}))
            return 0
        out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), METER)
    except (ImportError, FileNotFoundError) as exc:
        METER.stop()
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    harness.print_report(args.workload, args.seed, out, bool(args.trace))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
